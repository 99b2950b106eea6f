"""A flat address space assigning global base addresses to regions.

The cache and write-buffer models operate on *global* addresses, so
regions that are distinct in the program (database, undo log, mirror,
heap) must not overlap in address space. :class:`AddressSpace` hands
out aligned, non-overlapping base addresses and can resolve a global
address back to (region, offset) — which the write-through layer uses
to mirror an address into the backup's identical layout.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.memory.region import MemoryRegion


class AddressSpace:
    """Allocates global base addresses for memory regions."""

    def __init__(self, start: int = 0x1000_0000, alignment: int = 4096):
        if alignment < 1 or alignment & (alignment - 1):
            raise ConfigurationError("alignment must be a power of two")
        self.alignment = alignment
        self._next = _align(start, alignment)
        self._placed: List[MemoryRegion] = []
        self._by_name: Dict[str, MemoryRegion] = {}

    def place(self, region: MemoryRegion) -> MemoryRegion:
        """Assign the next free aligned base address to ``region``."""
        if region.name in self._by_name:
            raise ConfigurationError(
                f"region {region.name!r} already placed in this address space"
            )
        region.base = self._next
        self._next = _align(self._next + region.size, self.alignment)
        self._placed.append(region)
        self._by_name[region.name] = region
        return region

    def resolve(self, address: int) -> Tuple[MemoryRegion, int]:
        """Map a global address back to (region, offset)."""
        for region in self._placed:
            if region.base <= address < region.base + region.size:
                return region, address - region.base
        raise ConfigurationError(f"address {address:#x} is not mapped")

    def region_at(self, address: int) -> Optional[MemoryRegion]:
        try:
            return self.resolve(address)[0]
        except ConfigurationError:
            return None

    def __contains__(self, address: int) -> bool:
        return self.region_at(address) is not None

    @property
    def regions(self) -> List[MemoryRegion]:
        return list(self._placed)


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)
