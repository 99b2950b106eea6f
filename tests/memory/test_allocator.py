"""Allocators: heap (boundary tags, coalescing, metadata writes) and
array."""

import pytest

from repro.errors import AllocationError
from repro.memory.allocator import (
    ArrayAllocator,
    HeapAllocator,
)
from repro.memory.region import MemoryRegion, WriteCategory


def make_heap(size=4096):
    region = MemoryRegion("heap", size)
    return region, HeapAllocator(region)


class TestHeapAllocator:
    def test_malloc_returns_distinct_payloads(self):
        _region, heap = make_heap()
        a = heap.malloc(40)
        b = heap.malloc(40)
        assert a != b
        assert heap.allocs == 2

    def test_payloads_do_not_overlap(self):
        region, heap = make_heap()
        a = heap.malloc(64)
        b = heap.malloc(64)
        region.write(a, b"A" * 64)
        region.write(b, b"B" * 64)
        assert region.read(a, 64) == b"A" * 64
        assert region.read(b, 64) == b"B" * 64

    def test_free_and_reuse(self):
        _region, heap = make_heap(1024)
        a = heap.malloc(200)
        heap.free(a)
        b = heap.malloc(200)
        assert b == a  # first fit reuses the freed block

    def test_exhaustion_raises(self):
        _region, heap = make_heap(512)
        heap.malloc(300)
        with pytest.raises(AllocationError):
            heap.malloc(300)

    def test_free_everything_restores_capacity(self):
        _region, heap = make_heap(2048)
        offsets = [heap.malloc(100) for _ in range(8)]
        with pytest.raises(AllocationError):
            heap.malloc(1500)
        for offset in offsets:
            heap.free(offset)
        # After coalescing we can allocate one big block again.
        heap.malloc(1500)

    def test_first_fit_past_the_head_of_the_free_list(self):
        """A block taken from the middle of the list is unlinked
        between two neighbours (an exact fit: no split); one taken from
        its tail splits, and the rest goes in front of a non-empty
        list. Freeing everything still leaves one block."""
        _region, heap = make_heap(2048)
        a = heap.malloc(100)  # a 144-byte block
        b, c, d = (heap.malloc(40) for _ in range(3))  # 80-byte blocks
        heap.free(a)
        heap.free(c)  # the list: c, a, then the tail block
        assert heap.malloc(100) == a  # past c, and c stays linked
        big = heap.malloc(300)  # past c, from the tail
        assert big > d
        assert heap.splits == 5
        for offset in (a, b, d, big):
            heap.free(offset)
        heap.malloc(1500)

    def test_coalescing_merges_neighbours(self):
        _region, heap = make_heap(2048)
        a = heap.malloc(100)
        b = heap.malloc(100)
        c = heap.malloc(100)
        heap.free(a)
        heap.free(c)
        heap.free(b)  # merges with both neighbours
        assert heap.coalesces >= 2
        heap.malloc(400)  # fits only if merged

    def test_double_free_rejected(self):
        _region, heap = make_heap()
        a = heap.malloc(64)
        heap.free(a)
        with pytest.raises(AllocationError):
            heap.free(a)

    def test_invalid_free_rejected(self):
        _region, heap = make_heap()
        with pytest.raises(AllocationError):
            heap.free(5)

    def test_zero_malloc_rejected(self):
        _region, heap = make_heap()
        with pytest.raises(AllocationError):
            heap.malloc(0)

    def test_metadata_writes_are_categorized_meta(self):
        region = MemoryRegion("heap", 4096)
        categories = []
        region.add_observer(
            lambda offset, length, category: categories.append(category)
        )
        heap = HeapAllocator(region)
        offset = heap.malloc(64)
        heap.free(offset)
        assert categories, "allocator bookkeeping must be real region writes"
        assert all(category is WriteCategory.META for category in categories)

    def test_attach_without_format_preserves_state(self):
        region = MemoryRegion("heap", 4096)
        heap = HeapAllocator(region)
        a = heap.malloc(64)
        region.write(a, b"Z" * 64)
        # Re-attach (e.g. on a backup after failover).
        HeapAllocator(region, fresh=False)
        assert region.read(a, 64) == b"Z" * 64

    def test_too_small_heap_rejected(self):
        region = MemoryRegion("heap", 64)
        with pytest.raises(AllocationError):
            HeapAllocator(region)


class TestArrayAllocator:
    def test_push_returns_consecutive_records(self):
        region = MemoryRegion("arr", 1024)
        array = ArrayAllocator(region, record_bytes=16)
        a = array.push()
        b = array.push()
        assert b == a + 16
        assert array.count == 2

    def test_truncate(self):
        region = MemoryRegion("arr", 1024)
        array = ArrayAllocator(region, record_bytes=16)
        array.push()
        array.push()
        array.truncate()
        assert array.count == 0

    def test_capacity_limit(self):
        region = MemoryRegion("arr", 8 + 32)
        array = ArrayAllocator(region, record_bytes=16)
        array.push()
        array.push()
        with pytest.raises(AllocationError):
            array.push()

    def test_count_is_persistent_state(self):
        region = MemoryRegion("arr", 1024)
        array = ArrayAllocator(region, record_bytes=16)
        array.push()
        attached = ArrayAllocator(region, record_bytes=16, fresh=False)
        assert attached.count == 1
