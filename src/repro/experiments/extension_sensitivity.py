"""Extension: are the paper's conclusions robust to the calibration?

The reproduction's hardware constants (overlap factor, cache-miss
penalty, per-packet overhead) carry uncertainty. This experiment
re-evaluates the measured runs under a grid of perturbed calibrations
— re-anchoring the base costs each time, exactly as the real pipeline
does — and checks which of the paper's qualitative conclusions hold at
every grid point:

1. passive ordering V0 < V1 < V2 < V3 (both benchmarks);
2. the active backup beats the best passive scheme (both benchmarks);
3. the straightforward V0 primary-backup collapses by >= 2x;
4. at 4 CPUs the active scheme beats passive V3 by >= 1.5x.

A conclusion that only holds for one lucky constant would be a
reproduction artifact; these hold across the grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List

from repro.experiments.common import (
    PAPER_DB_BYTES,
    WORKLOADS,
    ExperimentContext,
    active_cell,
    passive_cell,
    standalone_cell,
)
from repro.perf.calibration import DEFAULT_CALIBRATION
from repro.perf.report import ReportTable
from repro.perf.throughput import ThroughputEstimator, calibrate_bases
from repro.vista.factory import ENGINE_VERSIONS

OVERLAPS = (0.15, 0.30, 0.50)
MISS_PENALTIES = (0.07, 0.13, 0.22)  # us
PACKET_OVERHEADS = (0.20, 0.272, 0.35)  # us

CONCLUSIONS = (
    "passive ordering v0<v1<v2<v3",
    "active beats best passive",
    "straightforward collapse >= 2x",
    "active >= 1.5x passive-v3 at 4 CPUs",
)


@dataclass
class SensitivityResult:
    grid_points: int
    held: Dict[str, int]
    failures: List[tuple]

    def table(self) -> ReportTable:
        table = ReportTable(
            "Extension: conclusion robustness across the calibration grid",
            ["conclusion", "held", "grid"],
        )
        for conclusion in CONCLUSIONS:
            table.add_row(
                conclusion, self.held[conclusion], self.grid_points
            )
        table.add_note(
            f"grid: overlap {OVERLAPS} x miss penalty {MISS_PENALTIES} "
            f"x packet overhead {PACKET_OVERHEADS} us"
        )
        return table

    def check(self, minimum_fraction: float = 0.95) -> None:
        for conclusion in CONCLUSIONS:
            fraction = self.held[conclusion] / self.grid_points
            assert fraction >= minimum_fraction, (
                conclusion, fraction, self.failures[:5],
            )


def reads(workload: str) -> dict:
    cells = {
        "v3-standalone": standalone_cell("v3", workload),
        "v0-standalone": standalone_cell("v0", workload),
        **{version: passive_cell(version, workload) for version in ENGINE_VERSIONS},
        "active": active_cell(workload),
    }
    return {label: (spec, PAPER_DB_BYTES) for label, spec in cells.items()}


def run(ctx: ExperimentContext) -> SensitivityResult:
    # Measured runs are calibration-independent: gather them once.
    runs = {
        workload: {
            label: ctx.read(*read) for label, read in reads(workload).items()
        }
        for workload in WORKLOADS
    }

    held = {conclusion: 0 for conclusion in CONCLUSIONS}
    failures: List[tuple] = []
    grid = list(itertools.product(OVERLAPS, MISS_PENALTIES, PACKET_OVERHEADS))

    for overlap, miss_penalty, packet_overhead in grid:
        base = DEFAULT_CALIBRATION
        calibration = replace(
            base,
            overlap=overlap,
            machine=replace(
                base.machine,
                board_cache=replace(
                    base.machine.board_cache, miss_penalty_us=miss_penalty
                ),
            ),
            san=replace(base.san, per_packet_overhead_us=packet_overhead),
        )
        calibration = calibrate_bases(
            calibration,
            {workload: runs[workload]["v3-standalone"] for workload in WORKLOADS},
        )
        estimator = ThroughputEstimator(calibration)

        point = (overlap, miss_penalty, packet_overhead)
        verdicts = _evaluate(estimator, runs)
        for conclusion, ok in verdicts.items():
            if ok:
                held[conclusion] += 1
            else:
                failures.append((conclusion, point))

    return SensitivityResult(
        grid_points=len(grid), held=held, failures=failures
    )


def _evaluate(estimator: ThroughputEstimator, runs) -> Dict[str, bool]:
    ordering_ok = True
    active_ok = True
    collapse_ok = True
    smp_ok = True
    for workload in WORKLOADS:
        reports = {
            version: estimator.passive(runs[workload][version])
            for version in ENGINE_VERSIONS
        }
        passive = {version: report.tps for version, report in reports.items()}
        active_report = estimator.active(runs[workload]["active"])
        v0_standalone = estimator.standalone(runs[workload]["v0-standalone"]).tps

        if not passive["v0"] < passive["v1"] < passive["v2"] < passive["v3"]:
            ordering_ok = False
        if not active_report.tps > passive["v3"]:
            active_ok = False
        if not passive["v0"] < v0_standalone / 2.0:
            collapse_ok = False
        active_4 = estimator.smp_aggregate(active_report, 4)
        passive_4 = estimator.smp_aggregate(reports["v3"], 4)
        if not active_4 > 1.5 * passive_4:
            smp_ok = False
    return dict(zip(CONCLUSIONS, (ordering_ok, active_ok, collapse_ok, smp_ok)))
