"""Property suite for the simulator-core kernels.

Two families of properties, both of the "kernel and plain loop agree
exactly" kind:

* the big-int XOR diff kernel against the word-at-a-time ``diff_runs``
  of ``tests/oracles/diff_reference.py`` on random buffer pairs — equal runs for every length,
  including trailing partial words, all-equal and all-different
  buffers, and non-default word sizes;
* event-queue determinism — same-timestamp FIFO ordering, lazy
  cancellation, and wheel-vs-heap equivalence on random schedules with
  interleaved pushes, pops, bounded pops and cancellations.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.fastpath.kernels import diff_runs_fast
from repro.sim.events import BucketedEventQueue, EventQueue
from tests.oracles.diff_reference import diff_runs

# ---------------------------------------------------------------------------
# Diff kernel vs reference
# ---------------------------------------------------------------------------


@st.composite
def buffer_pair(draw):
    old = draw(st.binary(min_size=0, max_size=4096))
    new = bytearray(old)
    for _ in range(draw(st.integers(0, 8))):
        if not new:
            break
        position = draw(st.integers(0, len(new) - 1))
        span = draw(st.integers(1, min(16, len(new) - position)))
        for index in range(position, position + span):
            new[index] = draw(st.integers(0, 255))
    return bytes(old), bytes(new)


@given(pair=buffer_pair(), word=st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_reference_on_random_pairs(pair, word):
    old, new = pair
    assert diff_runs_fast(old, new, word) == list(diff_runs(old, new, word))


@given(data=st.binary(min_size=0, max_size=4096))
@settings(max_examples=60, deadline=None)
def test_kernel_all_equal_buffers(data):
    assert diff_runs_fast(data, data) == []


@given(size=st.integers(0, 700))
@settings(max_examples=60, deadline=None)
def test_kernel_all_different_buffers(size):
    old = b"\x00" * size
    new = b"\xff" * size
    assert diff_runs_fast(old, new) == list(diff_runs(old, new))
    if size:
        assert diff_runs_fast(old, new) == [(0, size)]


@given(
    size=st.integers(1, 64),
    word=st.sampled_from([4, 8]),
    tail=st.integers(1, 7),
)
@settings(max_examples=100, deadline=None)
def test_kernel_trailing_partial_word(size, word, tail):
    # Force a difference inside the trailing partial word only.
    length = size * word + (tail % word or 1)
    old = bytes(length)
    new = bytearray(length)
    new[-1] = 0x5A
    assert diff_runs_fast(bytes(old), bytes(new), word) == list(
        diff_runs(bytes(old), bytes(new), word)
    )


@given(pair=buffer_pair())
@settings(max_examples=100, deadline=None)
def test_kernel_chunk_boundaries(pair):
    """Differences straddling the kernel's internal chunk boundary must
    merge into the same maximal runs the reference produces."""
    from repro.fastpath import kernels

    old, new = pair
    original = kernels._CHUNK_WORDS
    kernels._CHUNK_WORDS = 4  # 16-byte chunks: every buffer straddles
    try:
        assert diff_runs_fast(old, new) == list(diff_runs(old, new))
    finally:
        kernels._CHUNK_WORDS = original


def test_kernel_rejects_length_mismatch():
    try:
        diff_runs_fast(b"ab", b"abc")
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected ValueError on unequal lengths")


# ---------------------------------------------------------------------------
# Event-queue determinism: wheel vs heap
# ---------------------------------------------------------------------------

#: A random schedule: pushes at coarse-grained times (to force
#: same-timestamp collisions), interleaved pops, bounded pops and
#: cancellations of previously returned handles.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 12)),
        st.tuples(st.just("pop"), st.just(0)),
        st.tuples(st.just("pop_until"), st.integers(0, 12)),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(st.just("peek"), st.just(0)),
    ),
    min_size=1,
    max_size=120,
)


def _drive(queue, ops):
    """Run an op list against ``queue``; events must never fire before
    an already-popped event's time (delivery is monotone because pops
    model a forward-moving clock)."""
    handles = []
    popped = []
    floor = 0.0
    for op, value in ops:
        if op == "push":
            time = max(float(value), floor)
            handles.append(queue.push(time, lambda: None, name=f"e{len(handles)}"))
        elif op == "pop":
            event = queue.pop()
            if event is not None:
                floor = event.time
                popped.append((event.time, event.seq, event.name))
        elif op == "pop_until":
            event = queue.pop_until(float(value))
            if event is not None:
                floor = event.time
                popped.append((event.time, event.seq, event.name))
        elif op == "cancel" and handles:
            handles[value % len(handles)].cancel()
        elif op == "peek":
            queue.peek_time()
    while True:
        event = queue.pop()
        if event is None:
            break
        popped.append((event.time, event.seq, event.name))
    return popped


@given(ops=_OPS)
@settings(max_examples=300, deadline=None)
def test_wheel_and_heap_pop_identical_sequences(ops):
    assert _drive(EventQueue(), ops) == _drive(BucketedEventQueue(), ops)


@given(ops=_OPS)
@settings(max_examples=150, deadline=None)
def test_pop_order_is_time_then_fifo(ops):
    for queue in (EventQueue(), BucketedEventQueue()):
        popped = _drive(queue, ops)
        keys = [(time, seq) for time, seq, _name in popped]
        assert keys == sorted(keys)


@given(
    count=st.integers(1, 50),
    cancel=st.sets(st.integers(0, 49)),
    impl=st.sampled_from(["heap", "wheel"]),
)
@settings(max_examples=150, deadline=None)
def test_same_timestamp_fifo_with_cancellation(count, cancel, impl):
    queue = EventQueue() if impl == "heap" else BucketedEventQueue()
    handles = [queue.push(7.0, lambda: None, name=str(i)) for i in range(count)]
    for index in cancel:
        if index < count:
            handles[index].cancel()
    survivors = []
    while True:
        event = queue.pop()
        if event is None:
            break
        survivors.append(int(event.name))
    expected = [i for i in range(count) if i not in cancel]
    assert survivors == expected


@given(ops=_OPS, until=st.floats(min_value=0.0, max_value=12.0))
@settings(max_examples=100, deadline=None)
def test_pop_until_never_returns_later_events(ops, until):
    for queue in (EventQueue(), BucketedEventQueue()):
        for op, value in ops:
            if op == "push":
                queue.push(float(value), lambda: None)
        while True:
            event = queue.pop_until(until)
            if event is None:
                break
            assert event.time <= until
        remaining_time = queue.peek_time()
        if remaining_time is not None:
            assert remaining_time > until
