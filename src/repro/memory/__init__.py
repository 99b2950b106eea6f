"""Memory substrate: instrumented regions, Rio, allocators.

* :mod:`repro.memory.region` — byte-addressable memory regions with
  write observers and per-category accounting (modified / undo / meta),
  the hook the replication layer uses to implement write doubling.
* :mod:`repro.memory.rio` — the Rio reliable-memory model: regions
  that survive simulated operating-system crashes, with optional
  VM-protection semantics.
* :mod:`repro.memory.allocator` — a boundary-tag heap allocator whose
  metadata writes land in the region (this is where Version 0's
  dominant metadata traffic comes from), plus the bump and array
  allocators used by the restructured engines.
* :mod:`repro.memory.mapping` — a flat address space assigning global
  base addresses to regions so cache and packet models see realistic
  addresses.
"""

from repro.memory.region import MemoryRegion, WriteCategory
from repro.memory.rio import RioMemory
from repro.memory.allocator import ArrayAllocator, BumpAllocator, HeapAllocator
from repro.memory.mapping import AddressSpace

__all__ = [
    "MemoryRegion",
    "WriteCategory",
    "RioMemory",
    "HeapAllocator",
    "BumpAllocator",
    "ArrayAllocator",
    "AddressSpace",
]
