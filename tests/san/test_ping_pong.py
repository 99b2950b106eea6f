"""The Figure 1 microbenchmark."""

import pytest

from repro.perf.calibration import PAPER
from repro.san.ping_pong import (
    measure_effective_bandwidth,
    run_figure1_sweep,
)

REGION = 1 << 16  # small region keeps the test fast


def test_stride_one_produces_full_packets():
    point = measure_effective_bandwidth(32, REGION)
    assert point.packets == REGION // 32


def test_stride_eight_produces_word_packets():
    point = measure_effective_bandwidth(4, REGION)
    assert point.packets == REGION // 32  # one 4-byte packet per block


def test_bandwidth_matches_paper_endpoints():
    low = measure_effective_bandwidth(4, REGION)
    high = measure_effective_bandwidth(32, REGION)
    assert low.effective_mb_per_s == pytest.approx(14.0, rel=0.12)
    assert high.effective_mb_per_s == pytest.approx(80.0, rel=0.08)


def test_sweep_is_monotonic():
    points = run_figure1_sweep(region_bytes=REGION)
    bandwidths = [point.effective_mb_per_s for point in points]
    assert bandwidths == sorted(bandwidths)
    assert [point.packet_bytes for point in points] == [4, 8, 16, 32]


def test_sweep_tracks_paper_curve():
    for point in run_figure1_sweep(region_bytes=REGION):
        assert point.effective_mb_per_s == pytest.approx(
            PAPER["figure1"][point.packet_bytes], rel=0.15
        )


def test_invalid_packet_sizes_rejected():
    with pytest.raises(ValueError):
        measure_effective_bandwidth(2, REGION)
    with pytest.raises(ValueError):
        measure_effective_bandwidth(64, REGION)
    with pytest.raises(ValueError):
        measure_effective_bandwidth(6, REGION)
