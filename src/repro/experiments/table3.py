"""Table 3 — standalone throughput of the restructured versions.

The restructuring done for the backup's benefit improves standalone
performance too: Versions 1 and 2 drop the dynamic allocation and
linked-list work, and Version 3's inline log adds memory-access
locality on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.experiments.common import (
    PAPER_DB_BYTES,
    WORKLOADS,
    ExperimentContext,
    standalone_cell,
    throughputs,
    version_table,
)
from repro.perf.report import ReportTable
from repro.vista.factory import ENGINE_VERSIONS


@dataclass
class Table3Result:
    tps: Dict[str, Dict[str, float]]  # workload -> version -> tps

    def table(self) -> ReportTable:
        return version_table(
            "Table 3: Standalone throughput of the re-structured versions "
            "(txns/sec)",
            "standalone", self.tps,
            "V3 is calibration's anchor row; V0-V2 are predictions from "
            "measured operation counts",
        )

    def check(self) -> None:
        """The paper's standalone ordering: V3 > V1 > V2 > V0."""
        for workload in WORKLOADS:
            tps = self.tps[workload]
            assert tps["v3"] > tps["v1"] > tps["v2"] > tps["v0"], (
                f"{workload}: standalone ordering violated: {tps}"
            )


def reads(workload: str) -> dict:
    return {
        version: (standalone_cell(version, workload), PAPER_DB_BYTES)
        for version in ENGINE_VERSIONS
    }


def run(ctx: ExperimentContext) -> Table3Result:
    return Table3Result(tps=throughputs(ctx, reads))
