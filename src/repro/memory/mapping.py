"""A flat address space assigning global base addresses to regions.

The cache and write-buffer models operate on *global* addresses, so
regions that are distinct in the program (database, undo log, mirror,
heap) must not overlap in address space. :class:`AddressSpace` hands
out aligned, non-overlapping base addresses.
"""

from __future__ import annotations

from typing import Set

from repro.errors import ConfigurationError
from repro.memory.region import MemoryRegion


#: Where the first region is placed, and the page alignment of every
#: base address.
_START = 0x1000_0000
_ALIGNMENT = 4096


class AddressSpace:
    """Allocates global base addresses for memory regions."""

    def __init__(self):
        self._next = _START
        self._names: Set[str] = set()

    def place(self, region: MemoryRegion) -> MemoryRegion:
        """Assign the next free aligned base address to ``region``."""
        if region.name in self._names:
            raise ConfigurationError(
                f"region {region.name!r} already placed in this address space"
            )
        region.base = self._next
        self._next = _align(self._next + region.size)
        self._names.add(region.name)
        return region


def _align(value: int) -> int:
    return (value + _ALIGNMENT - 1) & ~(_ALIGNMENT - 1)
