"""The word-batch lane against the per-store lane.

``MemoryRegion.write_words(pairs)`` is defined as ``write_u64`` per
pair. On a doubled region (a ``ReplicaBinding`` onto a Memory Channel
window) the batch reaches the window in one call, so these properties
hold the batch to the per-store loop everywhere a store leaves a
trace: both regions' bytes and counters, the interface's pending
entries and counters, the window's byte counts, every observer's calls,
the exception and the stores that landed before it, and the packets a
barrier then drains.
"""

from __future__ import annotations

import struct
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OutOfBoundsError, ReproError
from repro.memory.region import MemoryRegion
from repro.replication.writethrough import ReplicaBinding
from repro.san import memory_channel
from repro.san.memory_channel import MemoryChannelInterface

SIZE = 256

#: How the pair is set up before the stores, besides the binding.
CASES = (
    "plain",
    "crashed-interface",
    "unmapped-window",
    "observed-remote",
    "per-store-observer-after",
    "per-store-observer-before",
    "second-window",
    "near-pending-limit",
    "unobserved",
)

words = st.tuples(st.integers(0, SIZE - 8), st.integers(0, (1 << 64) - 1))

#: A pair a store refuses: out of bounds either way, or no 64-bit word.
bad_words = st.one_of(
    st.tuples(st.integers(SIZE - 7, SIZE + 64), st.integers(0, 255)),
    st.tuples(st.integers(-64, -1), st.integers(0, 255)),
    st.tuples(st.integers(0, SIZE - 8), st.integers(1 << 64, 1 << 66)),
    st.tuples(st.integers(0, SIZE - 8), st.integers(-(1 << 10), -1)),
)


class Recorder:
    """A per-store observer that keeps every call."""

    def __init__(self):
        self.calls = []

    def __call__(self, offset, length, category):
        self.calls.append((offset, length, category))


def build(case, prefix):
    """A bound local/remote pair in ``case``, after ``prefix`` words
    went through it one store at a time."""
    local = MemoryRegion("local", SIZE)
    remote = MemoryRegion("twin", SIZE)
    interface = MemoryChannelInterface("sender")
    recorders = [Recorder()]
    if case == "per-store-observer-before":
        local.add_observer(recorders[0])
    if case != "unobserved":  # no binding: the region's own lane
        ReplicaBinding(local, interface.map_remote(remote))
    if case == "per-store-observer-after":
        local.add_observer(recorders[0])
    if case == "observed-remote":
        remote.add_observer(recorders[0])
    interfaces = [interface]
    if case == "second-window":
        second = MemoryChannelInterface("second")
        ReplicaBinding(local, second.map_remote(MemoryRegion("third", SIZE)))
        interfaces.append(second)
    if case == "near-pending-limit":
        # Up to the store before the limit's flush, so the batch
        # straddles it.
        for index in range(memory_channel._PENDING_LIMIT - 3):
            local.write_u64(8 * (index % (SIZE // 8)), index)
    for offset, value in prefix:
        local.write_u64(offset, value)
    if case == "crashed-interface":
        interface.crash()
    if case == "unmapped-window":
        interface.unmap_all()
    if case == "second-window":
        # It refuses at the first store: had the first window taken
        # the batch, no per-store order would match.
        interfaces[1].crash()
    return local, remote, interfaces, recorders


def run(case, prefix, pairs, batched):
    """Issue ``pairs`` as one batch or store by store; every trace the
    stores leave, the exception included, then the drained packets."""
    local, remote, interfaces, recorders = build(case, prefix)
    try:
        if batched:
            local.write_words(pairs)
        else:
            for offset, value in pairs:
                local.write_u64(offset, value)
        error = None
    except (ReproError, struct.error) as exc:  # compared by type and text
        error = (type(exc), str(exc))
    state = [
        error,
        local.snapshot(), local.writes_observed, local.bytes_written,
        remote.snapshot(), remote.writes_observed, remote.bytes_written,
        [recorder.calls for recorder in recorders],
    ]
    for interface in interfaces:
        state += [
            list(interface._pending), interface._pending_stores,
            interface.io_stores, interface.bytes_by_category,
            [dict(mapping.bytes_by_category) for mapping in interface._mappings],
        ]
    for interface in interfaces:
        interface.barrier()
        state.append(dict(interface._trace.histogram))
    return state


@given(
    prefix=st.lists(words, max_size=6),
    pairs=st.lists(words, max_size=16),
    bad=st.one_of(st.none(), st.tuples(st.integers(0, 16), bad_words)),
    case=st.sampled_from(CASES),
)
@settings(max_examples=200, deadline=None)
def test_a_word_batch_is_the_per_store_loop(prefix, pairs, bad, case):
    """Any batch — aligned or not, with a refused pair anywhere in it —
    in any of the pair's states equals its per-store loop."""
    if bad is not None:
        at, pair = bad
        pairs = pairs[:at] + [pair] + pairs[at:]
    assert run(case, prefix, pairs, True) == run(case, prefix, pairs, False)


#: Per case, the windows' batch calls and per-store calls that four
#: in-bounds words make: taken whole, declined into the per-store
#: lane (refused at its first store where the window is gone), never
#: offered, because some observer takes no batch or there are two, or
#: none at all, with no window bound.
LANE_CALLS = {
    "plain": (1, 0),
    "crashed-interface": (1, 1),
    "unmapped-window": (1, 1),
    "observed-remote": (1, 4),
    "per-store-observer-after": (0, 4),
    "per-store-observer-before": (0, 4),
    "second-window": (0, 2),
    "near-pending-limit": (1, 4),
    "unobserved": (0, 0),
}


@pytest.mark.parametrize("case", CASES)
def test_each_case_takes_the_lane_it_names(case):
    """The property above compares two paths only where the batch
    really is one: count the window's calls in each case."""
    local, _remote, _interfaces, _recorders = build(case, [])
    calls = []

    def profile(frame, event, _arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        local.write_words([(8 * index + 1, index) for index in range(4)])
    except ReproError:
        pass
    finally:
        sys.setprofile(None)
    assert (calls.count("_doubled_words"),
            calls.count("_doubled_store")) == LANE_CALLS[case]


def test_a_refused_pair_sends_the_whole_batch_per_store():
    """A pair that fails a check keeps the batch from the window: the
    per-store lane takes the stores before it, and the store itself
    raises."""
    local, remote, _interfaces, _recorders = build("plain", [])
    calls = []

    def profile(frame, event, _arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        with pytest.raises(OutOfBoundsError):
            local.write_words([(0, 1), (8, 2), (SIZE - 4, 3), (16, 4)])
    finally:
        sys.setprofile(None)
    assert (calls.count("_doubled_words"), calls.count("_doubled_store")) == (0, 2)
    assert remote.snapshot() == local.snapshot()
    assert local.read_u64(8) == 2 and local.read_u64(16) == 0


def test_an_unobserved_batch_stops_at_a_refused_word():
    """With no observer, the words before a refused pair land and are
    counted, the pair raises as its own store would, and nothing after
    it lands."""
    local = MemoryRegion("local", SIZE)
    with pytest.raises(OutOfBoundsError):
        local.write_words([(0, 1), (8, 2), (SIZE - 4, 3), (16, 4)])
    assert (local.read_u64(0), local.read_u64(8), local.read_u64(16)) == (1, 2, 0)
    assert (local.writes_observed, local.bytes_written) == (2, 16)
    with pytest.raises(struct.error, match="argument out of range"):
        local.write_words([(24, 5), (32, 1 << 64), (40, 6)])
    assert (local.read_u64(24), local.read_u64(40)) == (5, 0)
    assert (local.writes_observed, local.bytes_written) == (3, 24)
