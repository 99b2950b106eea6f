"""The discrete-event SMP contention simulation."""

import pytest

from repro.hardware.specs import MEMORY_CHANNEL_II
from repro.perf.smp_sim import packet_sequence, simulate_smp
from repro.san.packets import PacketTrace


def test_packet_sequence_distributes_evenly():
    trace = PacketTrace({32: 10, 4: 5})
    per_txn = packet_sequence(trace, 5)
    assert len(per_txn) == 5
    assert sum(len(packets) for packets in per_txn) == 15
    sizes = sorted(size for packets in per_txn for size in packets)
    assert sizes == [4] * 5 + [32] * 10


def test_packet_sequence_empty_trace():
    per_txn = packet_sequence(PacketTrace(), 3)
    assert per_txn == [[], [], []]


def test_packet_sequence_rejects_zero_transactions():
    with pytest.raises(ValueError):
        packet_sequence(PacketTrace(), 0)


def test_cpu_bound_stream_scales_linearly():
    # Tiny packets: the link never binds; throughput = n / cpu.
    result = simulate_smp(
        txn_cpu_us=10.0, txn_packets=[[4]], processors=4,
        duration_us=10_000.0,
    )
    assert result.aggregate_tps == pytest.approx(4 * 1e5, rel=0.02)
    assert result.link_busy_us / result.simulated_us < 0.2


def test_link_bound_streams_cap_at_link_capacity():
    # Each txn posts 8 x 32-byte packets (~3.15 us of link) but only
    # 1 us of CPU: the link caps the aggregate.
    packets = [[32] * 8]
    link_per_txn = 8 * MEMORY_CHANNEL_II.packet_time_us(32)
    result = simulate_smp(
        txn_cpu_us=1.0, txn_packets=packets, processors=4,
        duration_us=20_000.0,
    )
    cap = 1e6 / link_per_txn
    assert result.aggregate_tps == pytest.approx(cap, rel=0.05)
    assert result.link_busy_us / result.simulated_us > 0.95


def test_adding_processors_beyond_saturation_is_flat():
    packets = [[32] * 8]
    at_two = simulate_smp(1.0, packets, 2, duration_us=20_000.0)
    at_four = simulate_smp(1.0, packets, 4, duration_us=20_000.0)
    assert at_four.aggregate_tps <= at_two.aggregate_tps * 1.05


def test_streams_progress_fairly():
    result = simulate_smp(
        txn_cpu_us=2.0, txn_packets=[[32] * 4], processors=3,
        duration_us=20_000.0,
    )
    counts = result.per_stream_completed
    assert max(counts) - min(counts) <= max(counts) * 0.1 + 2


def test_rejects_zero_processors():
    with pytest.raises(ValueError):
        simulate_smp(1.0, [[4]], 0)


def test_write_buffer_backpressure_limits_single_stream():
    """A link-heavy stream cannot run ahead of its write buffers."""
    # 400 bytes of packets per txn >> the 192-byte buffer capacity.
    packets = [[32] * 12 + [4] * 4]
    result = simulate_smp(
        txn_cpu_us=0.5, txn_packets=packets, processors=1,
        duration_us=10_000.0,
    )
    link_per_txn = (12 * MEMORY_CHANNEL_II.packet_time_us(32)
                    + 4 * MEMORY_CHANNEL_II.packet_time_us(4))
    # Throughput is close to pure link speed, not CPU speed.
    assert result.aggregate_tps < 1.2 * 1e6 / link_per_txn
    assert result.per_stream_completed[0] > 0


# Inputs that used to hang, fail halfway through a run, or return
# nonsense are rejected before the first event, naming the argument.


@pytest.mark.parametrize("cpu_us", [0.0, -1.0, float("nan"), float("inf")])
def test_rejects_non_positive_cpu_time(cpu_us):
    # simulate_smp(0.0, [[]], 1) re-armed at t=0 forever; an infinite CPU
    # time silently returned an all-zero result.
    with pytest.raises(ValueError, match="txn_cpu_us"):
        simulate_smp(cpu_us, [[]], 1)


@pytest.mark.parametrize("size", [0, -4, MEMORY_CHANNEL_II.max_packet_bytes + 1])
def test_rejects_packets_the_san_cannot_carry(size):
    # These raised from inside an event action, mid-run.
    with pytest.raises(ValueError, match="txn_packets"):
        simulate_smp(1.0, [[4], [4, size]], 2)


def test_rejects_negative_buffer():
    # Used to yield a stream that stalls forever: per_stream_completed=[0].
    with pytest.raises(ValueError, match="buffer_bytes"):
        simulate_smp(1.0, [[4]], 1, buffer_bytes=-1)


def test_rejects_negative_duration():
    # Used to return a result with negative simulated_us.
    with pytest.raises(ValueError, match="duration_us"):
        simulate_smp(1.0, [[4]], 1, duration_us=-5.0)


@pytest.mark.parametrize("duration_us", [float("nan"), float("inf")])
def test_rejects_non_finite_duration(duration_us):
    # Neither ever returned: no event time exceeds NaN, none reaches inf.
    with pytest.raises(ValueError, match="duration_us"):
        simulate_smp(1.0, [[32]], 1, duration_us=duration_us)


def test_zero_buffer_and_empty_schedule_are_still_valid():
    every_post_stalls = simulate_smp(1.0, [[4]], 2, duration_us=100.0, buffer_bytes=0)
    assert min(every_post_stalls.per_stream_completed) > 0
    nothing_posted = simulate_smp(1.0, [], 2, duration_us=100.0)
    assert nothing_posted.per_stream_completed == [100, 100]
    assert nothing_posted.link_busy_us == 0.0


def test_simulation_runs_on_the_shared_kernel_without_polling(monkeypatch):
    """One Simulator.run drives it (so ``sim.events`` describes it), and
    a saturated link takes fewer events than it carries packets: the
    completions behind the head drain in place, off the heap."""
    from repro.sim.engine import Simulator

    runs = []
    original = Simulator.run

    def counting_run(self, *args, **kwargs):
        try:
            return original(self, *args, **kwargs)
        finally:
            runs.append(self.events_processed)

    monkeypatch.setattr(Simulator, "run", counting_run)
    result = simulate_smp(1.0, [[32] * 8], 4, duration_us=2_000.0)
    packets = round(result.link_busy_us / MEMORY_CHANNEL_II.packet_time_us(32))
    transactions = sum(result.per_stream_completed)
    assert len(runs) == 1
    # Per transaction a post and, if it stalled, a wake and a resume, and
    # a link event only where one of those interrupts the chain of
    # completions: 3,175 events for 5,072 packets here. One event per
    # packet was 6,977; polling took ~40,000 events a stream.
    assert transactions > 0
    assert 0 < runs[0] < packets
