"""Table 8 — active-backup throughput at larger database sizes.

The active scheme maps only the redo ring through the Memory Channel,
so the database can outgrow the SAN address space. Throughput degrades
gracefully as the database outgrows the 8 MB board cache: the random
balance/record lines miss more often.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.experiments.common import (
    MB,
    WORKLOADS,
    ExperimentContext,
    active_cell,
    throughputs,
)
from repro.perf.calibration import PAPER
from repro.perf.report import ReportTable

SIZES = (("10MB", 10 * MB), ("100MB", 100 * MB), ("1GB", 1024 * MB))


@dataclass
class Table8Result:
    tps: Dict[str, Dict[str, float]]  # workload -> size label -> tps

    def table(self) -> ReportTable:
        table = ReportTable.against_paper(
            "Table 8: Active-backup throughput vs database size (txns/sec)",
            "benchmark", ["10 MB", "100 MB", "1 GB"],
        )
        for workload in WORKLOADS:
            table.add_compared_row(workload, [
                (self.tps[workload][label], PAPER["dbsize"][workload][label])
                for label, _ in SIZES
            ])
            drop = (
                1.0 - self.tps[workload]["1GB"] / self.tps[workload]["10MB"]
            ) * 100
            paper_drop = (
                1.0 - PAPER["dbsize"][workload]["1GB"]
                / PAPER["dbsize"][workload]["10MB"]
            ) * 100
            table.add_note(
                f"{workload}: degrades {drop:.0f}% from 10 MB to 1 GB "
                f"(paper: {paper_drop:.0f}%) — cache misses on random "
                f"record lines"
            )
        return table

    def check(self) -> None:
        for workload in WORKLOADS:
            tps = self.tps[workload]
            assert tps["10MB"] > tps["100MB"] > tps["1GB"], (
                f"{workload}: degradation must be monotonic: {tps}"
            )
            drop = 1.0 - tps["1GB"] / tps["10MB"]
            assert 0.03 <= drop <= 0.40, (
                f"{workload}: degradation should be graceful "
                f"(paper: 13%/22%), got {drop:.0%}"
            )


def reads(workload: str) -> dict:
    return {label: (active_cell(workload), nominal) for label, nominal in SIZES}


def run(ctx: ExperimentContext) -> Table8Result:
    return Table8Result(tps=throughputs(ctx, reads))
