"""Property suite for the simulator-core kernels.

Two families of properties, both of the "kernel and plain loop agree
exactly" kind:

* the big-int XOR diff kernel against the word-at-a-time ``diff_runs``
  of ``tests/oracles/diff_reference.py`` on random buffer pairs — equal runs for every length,
  including trailing partial words and all-equal and all-different
  buffers;
* event-queue determinism — same-timestamp FIFO ordering and
  wheel-vs-heap equivalence on random schedules with interleaved
  pushes, unbounded and bounded pops and peeks.
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


@given(pair=buffer_pair())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_reference_on_random_pairs(pair):
    old, new = pair
    assert diff_runs_fast(old, new) == list(diff_runs(old, new))


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


@given(size=st.integers(1, 64), tail=st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_kernel_trailing_partial_word(size, tail):
    # Force a difference inside the trailing partial word only.
    length = size * 4 + tail  # 4-byte words
    old = bytes(length)
    new = bytearray(length)
    new[-1] = 0x5A
    assert diff_runs_fast(bytes(old), bytes(new)) == list(
        diff_runs(bytes(old), bytes(new))
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
#: same-timestamp collisions), interleaved unbounded and bounded pops
#: and peeks.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 12)),
        st.tuples(st.just("pop_until"), st.none() | st.integers(0, 12)),
        st.tuples(st.just("peek"), st.just(0)),
    ),
    min_size=1,
    max_size=120,
)


def _drive(queue, ops, peeked=None):
    """Run an op list against ``queue``; events must never fire before
    an already-popped event's time (delivery is monotone because pops
    model a forward-moving clock). Peeked times go to ``peeked``."""
    popped = []
    floor = 0.0
    for index, (op, value) in enumerate(ops):
        if op == "push":
            time = max(float(value), floor)
            queue.push(time, lambda: None, name=f"e{index}")
        elif op == "pop_until":
            event = queue.pop_until(None if value is None else float(value))
            if event is not None:
                floor = event.time
                popped.append((event.time, event.seq, event.name))
        elif peeked is not None:
            peeked.append(queue.peek_time())
    while True:
        event = queue.pop_until(None)
        if event is None:
            break
        popped.append((event.time, event.seq, event.name))
    return popped


@given(ops=_OPS)
@settings(max_examples=300, deadline=None)
def test_wheel_and_heap_pop_identical_sequences(ops):
    heap_peeks, wheel_peeks = [], []
    assert _drive(EventQueue(), ops, heap_peeks) == _drive(
        BucketedEventQueue(), ops, wheel_peeks)
    assert heap_peeks == wheel_peeks


@given(ops=_OPS)
@settings(max_examples=150, deadline=None)
def test_pop_order_is_time_then_fifo(ops):
    for queue in (EventQueue(), BucketedEventQueue()):
        popped = _drive(queue, ops)
        keys = [(time, seq) for time, seq, _name in popped]
        assert keys == sorted(keys)


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


def test_kernel_closes_a_run_left_open_at_a_chunk_edge(monkeypatch):
    """A run reaching a chunk's last word stays open into the next
    chunk, which closes it whether it is all equal or opens with equal
    words."""
    from repro.fastpath import kernels

    monkeypatch.setattr(kernels, "_CHUNK_WORDS", 4)  # 16-byte chunks
    old = bytes(48)
    equal_next = bytearray(old)
    equal_next[12] = 1  # chunk 0's last word; chunk 1 is equal
    gap_next = bytearray(equal_next)
    gap_next[24] = 1  # chunk 1's third word
    for new, runs in ((equal_next, [(12, 4)]),
                      (gap_next, [(12, 4), (24, 4)])):
        assert diff_runs_fast(old, bytes(new)) == runs
        assert list(diff_runs(old, bytes(new))) == runs
