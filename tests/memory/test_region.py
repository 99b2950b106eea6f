"""MemoryRegion: bounds, observers, categories."""

import pytest

from repro.errors import OutOfBoundsError
from repro.memory.region import MemoryRegion, WriteCategory


def test_write_then_read_round_trip():
    region = MemoryRegion("r", 64)
    region.write(8, b"hello")
    assert region.read(8, 5) == b"hello"
    assert region.read(0, 8) == b"\x00" * 8


def test_zero_size_rejected():
    with pytest.raises(ValueError):
        MemoryRegion("r", 0)


@pytest.mark.parametrize(
    "offset,length",
    [(-1, 4), (60, 8), (64, 1), (0, 65)],
)
def test_out_of_bounds_write(offset, length):
    region = MemoryRegion("r", 64)
    with pytest.raises(OutOfBoundsError):
        region.write(offset, b"x" * length)


def test_out_of_bounds_read():
    region = MemoryRegion("r", 64)
    with pytest.raises(OutOfBoundsError):
        region.read(63, 2)


def recorder(events):
    """An observer appending ``(offset, length, category)``."""
    return lambda offset, length, category: events.append(
        (offset, length, category)
    )


def test_observers_see_every_write_with_category():
    region = MemoryRegion("r", 64)
    events = []
    region.add_observer(recorder(events))
    region.write(0, b"abc", WriteCategory.META)
    region.write(10, b"d")
    assert events == [
        (0, 3, WriteCategory.META),
        (10, 1, WriteCategory.MODIFIED),
    ]


def test_observer_address_includes_base():
    region = MemoryRegion("r", 64)
    region.base = 0x1000  # as an AddressSpace places it
    events = []
    region.add_observer(recorder(events))
    region.write(4, b"x")
    offset, _length, _category = events[0]
    assert offset == 4 and region.base + offset == 0x1004


def test_remove_observer():
    region = MemoryRegion("r", 64)
    events = []
    observer = recorder(events)
    region.add_observer(observer)
    region.remove_observer(observer)
    region.write(0, b"x")
    assert events == []


def test_empty_write_is_noop():
    region = MemoryRegion("r", 64)
    events = []
    region.add_observer(recorder(events))
    region.write(0, b"")
    assert events == []
    assert region.writes_observed == 0


def test_poke_bypasses_observers_and_stats():
    region = MemoryRegion("r", 64)
    events = []
    region.add_observer(recorder(events))
    region.poke(0, b"init")
    assert events == []
    assert region.read(0, 4) == b"init"
    assert region.bytes_written == 0


def test_copy_within():
    region = MemoryRegion("r", 64)
    region.write(0, b"data")
    region.copy_within(0, 32, 4)
    assert region.read(32, 4) == b"data"


def test_copy_within_notifies_observers_like_a_write():
    region = MemoryRegion("r", 64)
    events = []
    region.add_observer(recorder(events))
    region.poke(0, b"data")
    region.copy_within(0, 32, 4)
    assert events == [(32, 4, WriteCategory.UNDO)]
    assert region.writes_observed == 1
    assert region.bytes_written == 4


def test_copy_within_overlapping_forward_and_backward():
    region = MemoryRegion("r", 32)
    region.poke(0, bytes(range(16)))
    region.copy_within(0, 4, 12)  # forward overlap
    assert region.read(4, 12) == bytes(range(12))
    region2 = MemoryRegion("r2", 32)
    region2.poke(4, bytes(range(12)))
    region2.copy_within(4, 0, 12)  # backward overlap
    assert region2.read(0, 12) == bytes(range(12))


def test_copy_within_zero_length_checks_source_bounds():
    region = MemoryRegion("r", 16)
    events = []
    region.add_observer(recorder(events))
    region.copy_within(4, 8, 0)
    assert events == []
    assert region.writes_observed == 0
    with pytest.raises(OutOfBoundsError):
        region.copy_within(17, 0, 0)


def test_view_is_read_only_and_checked():
    region = MemoryRegion("r", 16)
    region.poke(2, b"abc")
    view = region.view(2, 3)
    assert bytes(view) == b"abc"
    with pytest.raises(TypeError):
        view[0] = 0
    with pytest.raises(OutOfBoundsError):
        region.view(15, 2)


def test_snapshot_and_restore():
    region = MemoryRegion("r", 16)
    region.write(0, b"x" * 16)
    snap = region.snapshot()
    region.write(0, b"y" * 16)
    region.load_snapshot(snap)
    assert region.read(0, 16) == b"x" * 16


def test_load_snapshot_size_mismatch():
    region = MemoryRegion("r", 16)
    with pytest.raises(ValueError):
        region.load_snapshot(b"short")


def test_fill():
    region = MemoryRegion("r", 8)
    region.fill(0xAB)
    assert region.read(0, 8) == b"\xab" * 8


def test_fill_zero_and_page_straddling_sizes():
    # Exercise the page-chunked fill: below, at, and above the page.
    for size in (8, 1 << 16, (1 << 16) + 13):
        region = MemoryRegion("r", size)
        region.poke(0, b"x" * min(size, 64))
        region.fill(0)
        assert region.snapshot() == bytes(size)
        region.fill(7)
        assert region.snapshot() == b"\x07" * size


def test_fill_rejects_non_byte_values():
    region = MemoryRegion("r", 8)
    with pytest.raises(ValueError):
        region.fill(256)
    with pytest.raises(ValueError):
        region.fill(-1)


def test_write_statistics():
    region = MemoryRegion("r", 64)
    region.write(0, b"abcd")
    region.write(4, b"ef")
    assert region.writes_observed == 2
    assert region.bytes_written == 6


def test_len_and_repr():
    region = MemoryRegion("r", 64)
    assert len(region) == 64
    assert "r" in repr(region)
