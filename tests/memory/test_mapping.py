"""AddressSpace: non-overlapping aligned placement."""

import pytest

from repro.errors import ConfigurationError
from repro.memory.mapping import AddressSpace
from repro.memory.region import MemoryRegion


def test_place_assigns_aligned_bases():
    space = AddressSpace()
    a = space.place(MemoryRegion("a", 100))
    b = space.place(MemoryRegion("b", 100))
    assert a.base % 4096 == 0
    assert b.base % 4096 == 0
    assert b.base >= a.base + a.size


def test_regions_never_overlap():
    space = AddressSpace()
    regions = [space.place(MemoryRegion(f"r{i}", 5000)) for i in range(10)]
    spans = sorted((r.base, r.base + r.size) for r in regions)
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert start >= end


def test_duplicate_name_rejected():
    space = AddressSpace()
    space.place(MemoryRegion("r", 16))
    with pytest.raises(ConfigurationError):
        space.place(MemoryRegion("r", 16))
