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
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.hardware.specs import MEMORY_CHANNEL_II
from repro.perf.smp_sim import POLL_US, simulate_smp
from tests.oracles import smp_sim_reference

#: 14-42 ns per packet: every packet time is below POLL_US.
SUB_POLL_SAN = dataclasses.replace(
    MEMORY_CHANNEL_II, name="sub-poll test link",
    per_packet_overhead_us=0.01, raw_bandwidth_bytes_per_us=1000.0,
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


def test_sub_poll_san_really_is_below_the_poll_interval():
    assert SUB_POLL_SAN.packet_time_us(SUB_POLL_SAN.max_packet_bytes) < POLL_US
    assert MEMORY_CHANNEL_II.packet_time_us(4) > POLL_US
