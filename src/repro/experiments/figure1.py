"""Figure 1 — effective Memory Channel bandwidth vs packet size.

Reproduces the paper's strided-write microbenchmark: writing a large
region with varying strides produces fixed-size packets (stride one ->
32-byte packets, stride two -> 16-byte, ...); effective bandwidth is
bytes over link time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.perf.calibration import PAPER
from repro.perf.report import ReportTable
from repro.san.ping_pong import BandwidthPoint, run_figure1_sweep


@dataclass
class Figure1Result:
    points: List[BandwidthPoint]
    paper: Dict[int, float]

    def table(self) -> ReportTable:
        table = ReportTable(
            "Figure 1: Effective bandwidth vs Memory Channel packet size",
            ["packet", "measured MB/s", "paper MB/s", "ratio"], ratios=True,
        )
        for point in self.points:
            table.add_compared_row(
                f"{point.packet_bytes} bytes",
                [(point.effective_mb_per_s, self.paper[point.packet_bytes])],
            )
        table.add_note(
            "bandwidth grows with packet size because the per-packet "
            "overhead amortizes; 32-byte packets reach the link's peak"
        )
        return table

    def check(self) -> None:
        """Shape invariants: monotonic growth, correct endpoints."""
        bandwidths = [point.effective_mb_per_s for point in self.points]
        assert bandwidths == sorted(bandwidths), (
            f"bandwidth must grow with packet size: {bandwidths}"
        )
        by_size = {p.packet_bytes: p.effective_mb_per_s for p in self.points}
        assert 10.0 <= by_size[4] <= 18.0, by_size
        assert 70.0 <= by_size[32] <= 90.0, by_size


#: Bytes each packet size's strided sweep writes.
_REGION_BYTES = 1 << 18


def run(_ctx=None) -> Figure1Result:
    """Reads no cells: the sweep drives its own SAN pair."""
    points = run_figure1_sweep(region_bytes=_REGION_BYTES)
    return Figure1Result(points=points, paper=dict(PAPER["figure1"]))
