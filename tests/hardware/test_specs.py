"""Hardware parameter records and the SAN packet-cost curve."""

import pytest

from repro.hardware.specs import (
    ALPHASERVER_4100,
    MEMORY_CHANNEL_II,
    SanSpec,
)
from repro.san.packets import PacketTrace


def _stream_mb_per_s(size: int) -> float:
    """Sustained MB/s of a stream of ``size``-byte packets (Figure 1)."""
    return PacketTrace({size: 1}).effective_bandwidth_mb_per_s(MEMORY_CHANNEL_II)


def test_alpha_parameters_match_the_paper():
    assert ALPHASERVER_4100.cpu_mhz == 600.0
    assert ALPHASERVER_4100.num_cpus == 4
    assert ALPHASERVER_4100.write_buffers == 6
    assert ALPHASERVER_4100.write_buffer_bytes == 32
    assert ALPHASERVER_4100.board_cache.size_bytes == 8 * 1024 * 1024
    assert ALPHASERVER_4100.board_cache.line_size == 64


def test_memory_channel_latency_matches_paper():
    assert MEMORY_CHANNEL_II.latency_us == 3.3
    assert MEMORY_CHANNEL_II.max_packet_bytes == 32


def test_figure1_endpoints_from_fit():
    """The fitted curve must hit the paper's measured endpoints."""
    low = _stream_mb_per_s(4)
    high = _stream_mb_per_s(32)
    assert low == pytest.approx(14.0, rel=0.10)
    assert high == pytest.approx(80.0, rel=0.06)


def test_bandwidth_monotonic_in_packet_size():
    values = [
        _stream_mb_per_s(size)
        for size in (4, 8, 16, 32)
    ]
    assert values == sorted(values)


def test_packet_time_rejects_bad_sizes():
    with pytest.raises(ValueError):
        MEMORY_CHANNEL_II.packet_time_us(0)
    with pytest.raises(ValueError):
        MEMORY_CHANNEL_II.packet_time_us(64)


def test_packet_time_components():
    san = SanSpec("test", 1.0, 0.5, 100.0, 32)
    assert san.packet_time_us(10) == pytest.approx(0.5 + 0.1)
