"""The event-driven SMP simulation against its polling original.

``repro.perf.smp_sim.simulate_smp`` wakes a stalled stream from the
link completion that drains it, yet must resume it exactly where the
original 0.05 us busy-wait would have: every field of the result —
each stream's completed count and the float sum ``link_busy_us`` —
equals ``tests/oracles/smp_sim_reference.py`` (the original, verbatim)
on any input both accept.

The strategy aims at equal-timestamp orderings, which is where the two
could part: CPU times that are exact multiples of the poll interval or
round numbers (0.1, 0.25, 1.0) keep the lock-step streams, the poll
grid and each other's wake-ups on shared floats; buffers from 0 (every
post stalls) to 1000 bytes (none does); and a SAN whose packets take
*less* than one poll interval, where a tick scheduled before a
completion fires before it at an equal instant, and several streams
can come due on one tick.

A FIFO link's completions drain in place while nothing queued fires at
or before the next one; a queued event at the *same* instant was pushed
first and must still fire first. Real packet times are not exact binary
fractions, so a completion never ties with a post on the inputs above:
the dyadic SAN below (0.5 and 0.75 us packets against CPU times and
durations on the same quarter-microsecond grid) is what pins that rule.
"""

from __future__ import annotations

import dataclasses

from hypothesis import example, given, settings, strategies as st

from repro.hardware.specs import MEMORY_CHANNEL_II
from repro.perf.smp_sim import POLL_US, simulate_smp
from tests.oracles import smp_sim_reference

#: 14-42 ns per packet: every packet time is below POLL_US.
SUB_POLL_SAN = dataclasses.replace(
    MEMORY_CHANNEL_II, name="sub-poll test link",
    per_packet_overhead_us=0.01, raw_bandwidth_bytes_per_us=1000.0,
)

#: Exact binary fractions: 16 B takes 0.5 us, 32 B takes 0.75 us, so
#: completions land on the instants posts and the horizon land on.
DYADIC_SAN = dataclasses.replace(
    MEMORY_CHANNEL_II, name="dyadic test link",
    per_packet_overhead_us=0.25, raw_bandwidth_bytes_per_us=64.0,
)

_cpu_us = st.one_of(
    st.integers(1, 40).map(lambda ticks: ticks * POLL_US),
    st.sampled_from([0.05, 0.1, 0.25, 0.3, 1.0, 2.0]),
    st.floats(0.01, 5.0, allow_nan=False),
)
_packets = st.lists(
    st.one_of(st.sampled_from([4, 8, 16, 32]), st.integers(4, 32)),
    min_size=0, max_size=40,
)
_transactions = st.lists(_packets, min_size=0, max_size=5)


@settings(max_examples=300, deadline=None)
@given(
    txn_cpu_us=_cpu_us,
    txn_packets=_transactions,
    processors=st.integers(1, 6),
    duration_us=st.sampled_from([0.0, 3.0, 20.0, 61.7]),
    san=st.sampled_from([MEMORY_CHANNEL_II, SUB_POLL_SAN]),
    buffer_bytes=st.sampled_from([0, 32, 192, 1000]),
)
def test_event_driven_equals_polling_original(
    txn_cpu_us, txn_packets, processors, duration_us, san, buffer_bytes
):
    new = simulate_smp(
        txn_cpu_us, txn_packets, processors, duration_us, san, buffer_bytes)
    reference = smp_sim_reference.simulate_smp(
        txn_cpu_us, txn_packets, processors, duration_us, san, buffer_bytes)
    assert dataclasses.asdict(new) == dataclasses.asdict(reference)


@settings(max_examples=150, deadline=None)
@given(
    txn_cpu_us=st.sampled_from([0.5, 0.75, 1.0, 2.0]),
    txn_packets=st.lists(
        st.lists(st.sampled_from([16, 32]), min_size=0, max_size=8),
        min_size=1, max_size=3),
    processors=st.integers(2, 4),
    duration_us=st.sampled_from([3.0, 20.0, 40.0, 61.75]),
    buffer_bytes=st.sampled_from([0, 32, 64, 192]),
)
# per_stream_completed is [20, 19] here; the chain taking the tie (``<``
# for ``<=`` against ``peek_time()``) makes it [20, 20], and passes every
# other test in the suite and both golden seeds.
@example(txn_cpu_us=2.0, txn_packets=[[16, 16]], processors=2,
         duration_us=40.0, buffer_bytes=32)
def test_equal_timestamp_ties_go_to_the_event_queued_first(
    txn_cpu_us, txn_packets, processors, duration_us, buffer_bytes
):
    new = simulate_smp(
        txn_cpu_us, txn_packets, processors, duration_us, DYADIC_SAN, buffer_bytes)
    reference = smp_sim_reference.simulate_smp(
        txn_cpu_us, txn_packets, processors, duration_us, DYADIC_SAN, buffer_bytes)
    assert dataclasses.asdict(new) == dataclasses.asdict(reference)


def test_dyadic_san_packet_times_are_exact_binary_fractions():
    assert DYADIC_SAN.packet_time_us(16) == 0.5
    assert DYADIC_SAN.packet_time_us(32) == 0.75


def test_sub_poll_san_really_is_below_the_poll_interval():
    assert SUB_POLL_SAN.packet_time_us(SUB_POLL_SAN.max_packet_bytes) < POLL_US
    assert MEMORY_CHANNEL_II.packet_time_us(4) > POLL_US
