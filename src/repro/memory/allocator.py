"""Allocators over memory regions.

Two allocators reflect the structural regimes the paper compares
(Version 3's inline log needs none: it advances a volatile pointer):

* :class:`HeapAllocator` — a boundary-tag, first-fit free-list heap,
  as used by Version 0 (Vista) for undo-log records and pre-image
  buffers. All bookkeeping (headers, footers, free-list links, the
  list head) is stored *in the region* via categorized META writes —
  in a write-through replica every one of those stores crosses the
  SAN, which is how the straightforward implementation ends up
  shipping 6.7 GB of metadata for Debit-Credit (Table 2).
* :class:`ArrayAllocator` — fixed-size records allocated by
  incrementing an array index, as used by Versions 1 and 2 for their
  set_range coordinate arrays.

Integers are stored little-endian in 8-byte fields so the structures
are real bytes a recovery procedure can walk. Every field access is one
region word operation (:meth:`MemoryRegion.read_u64` /
:meth:`MemoryRegion.write_u64`, META category): a field store is still
one instrumented 8-byte region write — observers, hence write doubling,
see each of them — it just never becomes a ``bytes`` object on the way.
"""

from __future__ import annotations

from repro.errors import AllocationError
from repro.memory.region import MemoryRegion

HEADER_BYTES = 16  # size (8) | flags (8)
FOOTER_BYTES = 16
MIN_BLOCK = 64  # room for header + footer + two list pointers
_NEXT = 16  # free-list links, inside a free block
_PREV = 24
_FREE = 1
_USED = 0
NULL = 0  # no block; valid block offsets are always > 0


class HeapAllocator:
    """Boundary-tag first-fit heap with an in-region free list.

    The heap spans its whole region. Layout:
        [0:8]    free-list head (block offset, NULL when empty)
        [8:32]   reserved
        [32:]    blocks

    Block layout:
        [0:8]    block size (total, including header/footer)
        [8:16]   flags (1 = free)
        [16:24]  next free block (only meaningful while free)
        [24:32]  prev free block (only meaningful while free)
        ...payload...
        [-16:-8] block size (footer copy, for coalescing)
        [-8:]    flags (footer copy)
    """

    _HEAD_OFFSET = 0
    _BLOCKS_START = 32

    def __init__(self, region: MemoryRegion, fresh: bool = True):
        self.region = region
        self.size = region.size
        if self.size < self._BLOCKS_START + MIN_BLOCK:
            raise AllocationError(
                f"heap of {self.size} bytes is too small (min "
                f"{self._BLOCKS_START + MIN_BLOCK})"
            )
        self.allocs = 0
        self.frees = 0
        self.splits = 0
        self.coalesces = 0
        self.walk_steps = 0
        if fresh:
            self._format()

    # -- low-level field access -------------------------------------------

    def _block_size(self, block: int) -> int:
        return self.region.read_u64(block)

    def _block_flags(self, block: int) -> int:
        return self.region.read_u64(block + 8)

    def _set_tags(self, block: int, size: int, flags: int) -> None:
        """Write the header, then its footer copy."""
        write = self.region.write_u64
        write(block, size)
        write(block + 8, flags)
        write(block + size - 16, size)
        write(block + size - 8, flags)

    def _next_free(self, block: int) -> int:
        return self.region.read_u64(block + _NEXT)

    def _head(self) -> int:
        return self.region.read_u64(self._HEAD_OFFSET)

    # -- free-list manipulation -------------------------------------------

    def _list_insert(self, block: int) -> None:
        write = self.region.write_u64
        head = self._head()
        write(block + _NEXT, head)
        write(block + _PREV, NULL)
        if head != NULL:
            write(head + _PREV, block)
        write(self._HEAD_OFFSET, block)

    def _list_remove(self, block: int) -> None:
        write = self.region.write_u64
        prev = self.region.read_u64(block + _PREV)
        nxt = self._next_free(block)
        if prev != NULL:
            write(prev + _NEXT, nxt)
        else:
            write(self._HEAD_OFFSET, nxt)
        if nxt != NULL:
            write(nxt + _PREV, prev)

    def _format(self) -> None:
        """Initialize the heap as one big free block."""
        first = self._BLOCKS_START
        block_size = self.size - self._BLOCKS_START
        self.region.write_u64(self._HEAD_OFFSET, NULL)
        self._set_tags(first, block_size, _FREE)
        self._list_insert(first)

    # -- public API ---------------------------------------------------------

    def malloc(self, nbytes: int) -> int:
        """Allocate ``nbytes`` of payload; returns the payload's region
        offset."""
        if nbytes <= 0:
            raise AllocationError(f"cannot allocate {nbytes} bytes")
        need = max(MIN_BLOCK, _align16(nbytes + HEADER_BYTES + FOOTER_BYTES))
        block = self._head()
        while block != NULL:
            self.walk_steps += 1
            size = self._block_size(block)
            if size >= need:
                break
            block = self._next_free(block)
        if block == NULL:
            raise AllocationError(
                f"heap exhausted allocating {nbytes} bytes "
                f"(heap size {self.size})"
            )
        self._list_remove(block)
        remainder = size - need
        if remainder >= MIN_BLOCK:
            self.splits += 1
            self._set_tags(block, need, _USED)
            rest = block + need
            self._set_tags(rest, remainder, _FREE)
            self._list_insert(rest)
        else:
            self._set_tags(block, size, _USED)
        self.allocs += 1
        return block + HEADER_BYTES

    def free(self, payload_offset: int) -> None:
        """Free an allocation returned by :meth:`malloc`."""
        block = payload_offset - HEADER_BYTES
        if block < self._BLOCKS_START or block >= self.size:
            raise AllocationError(f"free of invalid offset {payload_offset}")
        if self._block_flags(block) != _USED:
            raise AllocationError(f"double free at offset {payload_offset}")
        size = self._block_size(block)

        # Coalesce with the following block if it is free.
        nxt = block + size
        if self._fits_block(nxt) and self._block_flags(nxt) == _FREE:
            self.coalesces += 1
            self._list_remove(nxt)
            size += self._block_size(nxt)

        # Coalesce with the preceding block if it is free.
        if block > self._BLOCKS_START:
            if self.region.read_u64(block - 8) == _FREE:
                prev_size = self.region.read_u64(block - 16)
                prev = block - prev_size
                self.coalesces += 1
                self._list_remove(prev)
                block = prev
                size += prev_size

        self._set_tags(block, size, _FREE)
        self._list_insert(block)
        self.frees += 1

    def _fits_block(self, block: int) -> bool:
        return block + MIN_BLOCK <= self.size


def _align16(n: int) -> int:
    return (n + 15) & ~15


class ArrayAllocator:
    """Fixed-size records allocated by incrementing an array index, as
    in Versions 1 and 2 ("the linked list structure of the undo log is
    replaced by an array from which consecutive records are allocated
    by simply incrementing the array index").

    The array spans its whole region. Layout: [0:8] count, [8:] records.
    """

    _DATA_START = 8

    def __init__(
        self,
        region: MemoryRegion,
        record_bytes: int,
        fresh: bool = True,
    ):
        if record_bytes <= 0:
            raise AllocationError("record size must be positive")
        self.region = region
        self.record_bytes = record_bytes
        self.capacity = (region.size - self._DATA_START) // record_bytes
        if self.capacity < 1:
            raise AllocationError("array area too small for one record")
        self.allocs = 0
        if fresh:
            self._set_count(0)

    def _set_count(self, value: int) -> None:
        self.region.write_u64(0, value)

    @property
    def count(self) -> int:
        return self.region.read_u64(0)

    def record_offset(self, index: int) -> int:
        """Region-relative offset of record ``index``."""
        if index < 0 or index >= self.capacity:
            raise AllocationError(f"record index {index} out of range")
        return self._DATA_START + index * self.record_bytes

    def push(self) -> int:
        """Allocate the next record; returns its region-relative offset."""
        count = self.count
        if count >= self.capacity:
            raise AllocationError(
                f"array allocator full ({self.capacity} records)"
            )
        self._set_count(count + 1)
        self.allocs += 1
        return self.record_offset(count)

    def truncate(self) -> None:
        """Move the index back to 0, de-allocating every record."""
        self._set_count(0)
