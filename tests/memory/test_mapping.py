"""AddressSpace: non-overlapping aligned placement and resolution."""

import pytest

from repro.errors import ConfigurationError
from repro.memory.mapping import AddressSpace
from repro.memory.region import MemoryRegion


def test_place_assigns_aligned_bases():
    space = AddressSpace(start=0x1000, alignment=4096)
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


def test_resolve_maps_address_back():
    space = AddressSpace()
    region = space.place(MemoryRegion("r", 256))
    found, offset = space.resolve(region.base + 17)
    assert found is region
    assert offset == 17


def test_resolve_unmapped_raises():
    space = AddressSpace()
    with pytest.raises(ConfigurationError):
        space.resolve(0x42)


def test_contains_and_region_at():
    space = AddressSpace()
    region = space.place(MemoryRegion("r", 256))
    assert region.base in space
    assert (region.base + region.size) not in space
    assert space.region_at(region.base) is region
    assert space.region_at(1) is None


def test_duplicate_name_rejected():
    space = AddressSpace()
    space.place(MemoryRegion("r", 16))
    with pytest.raises(ConfigurationError):
        space.place(MemoryRegion("r", 16))


def test_bad_alignment_rejected():
    with pytest.raises(ConfigurationError):
        AddressSpace(alignment=100)
