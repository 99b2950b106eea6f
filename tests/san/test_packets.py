"""PacketTrace: histograms and link-time math."""

import pytest

from repro.hardware.specs import MEMORY_CHANNEL_II, SanSpec
from repro.san.packets import PacketTrace


def test_record_and_counts():
    trace = PacketTrace()
    trace.record(4)
    trace.record(4)
    trace.record(32)
    assert trace.packets == 3
    assert trace.bytes == 40
    assert trace.histogram == {4: 2, 32: 1}


def test_invalid_packet_size():
    with pytest.raises(ValueError):
        PacketTrace().record(0)


def test_mean_packet_bytes():
    trace = PacketTrace({8: 1, 24: 1})
    assert trace.mean_packet_bytes() == 16.0
    assert PacketTrace().mean_packet_bytes() == 0.0


def test_link_time_sums_per_packet_costs():
    san = SanSpec("t", 1.0, 0.5, 100.0, 32)
    trace = PacketTrace({10: 2})
    assert trace.link_time_us(san) == pytest.approx(2 * (0.5 + 0.1))


def test_effective_bandwidth_improves_with_packet_size():
    small = PacketTrace({4: 256})
    large = PacketTrace({32: 32})  # same total bytes
    assert small.bytes == large.bytes
    assert (
        large.effective_bandwidth_mb_per_s(MEMORY_CHANNEL_II)
        > 3 * small.effective_bandwidth_mb_per_s(MEMORY_CHANNEL_II)
    )


def test_effective_bandwidth_empty_trace():
    assert PacketTrace().effective_bandwidth_mb_per_s(MEMORY_CHANNEL_II) == 0.0


def test_scaled():
    trace = PacketTrace({4: 10})
    per_txn = trace.scaled(0.1)
    assert per_txn.histogram == {4: 1.0}
    assert trace.histogram == {4: 10}


def test_clear():
    trace = PacketTrace({4: 1})
    trace.clear()
    assert trace.packets == 0
