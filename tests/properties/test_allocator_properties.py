"""Property-based tests of the heap allocator: no overlap, full reuse,
metadata consistency under arbitrary alloc/free interleavings, and the
straight-line operations equal to their helper-composed oracle."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.memory.allocator import HeapAllocator
from repro.memory.region import MemoryRegion
from tests.oracles.allocator_reference import ReferenceHeapAllocator

HEAP_BYTES = 8192


@st.composite
def alloc_script(draw):
    """A sequence of ('malloc', size) / ('free', index) operations."""
    ops = []
    live = 0
    for _ in range(draw(st.integers(1, 40))):
        if live and draw(st.booleans()):
            ops.append(("free", draw(st.integers(0, live - 1))))
            live -= 1
        else:
            ops.append(("malloc", draw(st.integers(1, 200))))
            live += 1
    return ops


@given(script=alloc_script())
@settings(max_examples=80, deadline=None)
def test_no_overlap_and_contents_preserved(script):
    region = MemoryRegion("heap", HEAP_BYTES)
    heap = HeapAllocator(region)
    live = []  # (offset, size, fill byte)
    fill = 1
    for op, arg in script:
        if op == "malloc":
            try:
                offset = heap.malloc(arg)
            except Exception:
                continue  # exhaustion is legal
            region.write(offset, bytes([fill % 251 + 1]) * arg)
            live.append((offset, arg, fill % 251 + 1))
            fill += 1
        else:
            if arg < len(live):
                offset, size, _byte = live.pop(arg)
                heap.free(offset)
        # Every live allocation still holds its pattern (no allocator
        # metadata or other allocation scribbled over it).
        for offset, size, byte in live:
            assert region.read(offset, size) == bytes([byte]) * size


@given(sizes=st.lists(st.integers(1, 300), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_free_all_then_reallocate_big(sizes):
    region = MemoryRegion("heap", HEAP_BYTES)
    heap = HeapAllocator(region)
    offsets = []
    for size in sizes:
        try:
            offsets.append(heap.malloc(size))
        except Exception:
            break
    for offset in offsets:
        heap.free(offset)
    # After freeing everything, coalescing must restore one big block.
    heap.malloc(HEAP_BYTES - 200)


@given(sizes=st.lists(st.integers(1, 100), min_size=2, max_size=15))
@settings(max_examples=60, deadline=None)
def test_distinct_payload_offsets(sizes):
    region = MemoryRegion("heap", HEAP_BYTES)
    heap = HeapAllocator(region)
    offsets = [heap.malloc(size) for size in sizes]
    assert len(set(offsets)) == len(offsets)


#: Small enough that a script runs the heap out.
ORACLE_HEAP_BYTES = 2048


@st.composite
def oracle_script(draw):
    """malloc of any size (zero and negative ones too), free of an
    earlier allocation (again, once freed), free of an offset outside
    the heap."""
    ops = []
    for _ in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(("malloc", "malloc", "free", "free",
                                     "invalid")))
        if kind == "malloc":
            ops.append(("malloc", draw(st.integers(-2, 700))))
        elif kind == "free":
            ops.append(("free", draw(st.integers(0, 1 << 16))))
        else:
            ops.append(("invalid", draw(st.one_of(
                st.integers(-64, HeapAllocator._BLOCKS_START + 15),
                st.integers(ORACLE_HEAP_BYTES + 16, ORACLE_HEAP_BYTES + 256),
            ))))
    return ops


def _replay(cls, script):
    """Run ``script`` on a fresh ``cls`` heap; every store as an
    ``(offset, value)`` pair, every outcome, the counters and bytes."""
    region = MemoryRegion("heap", ORACLE_HEAP_BYTES)
    stores = []
    region.add_observer(
        lambda offset, _length, _category:
            stores.append((offset, region.read_u64(offset))))
    heap = cls(region)
    returned, live, outcomes = [], set(), []
    for op, arg in script:
        if op == "free":
            if not returned:
                continue
            offset = returned[arg % len(returned)]
            # Free again only a block still headed as free (a double
            # free the heap refuses), not one a neighbour absorbed.
            if offset not in live and region.read_u64(offset - 8) != 1:
                continue
        else:
            offset = arg
        try:
            if op == "malloc":
                result = heap.malloc(arg)
                returned.append(result)
                live.add(result)
            else:
                result = heap.free(offset)
                live.discard(offset)
        except ReproError as exc:
            result = (type(exc), str(exc))
        outcomes.append(result)
    counters = (heap.allocs, heap.frees, heap.splits, heap.coalesces,
                heap.walk_steps)
    return (stores, outcomes, counters, region.snapshot(),
            region.writes_observed, region.bytes_written)


@given(script=oracle_script())
@settings(max_examples=150, deadline=None)
def test_straight_line_operations_equal_their_helper_composed_oracle(script):
    """Same stores in the same order, same offsets, errors and
    counters: exhaustion, double frees and invalid offsets included."""
    assert _replay(HeapAllocator, script) == _replay(
        ReferenceHeapAllocator, script)
