"""Tables 4 and 5 — primary-backup with a passive backup.

Table 4: throughput of each version write-doubling its replicated
structures to an idle backup. Table 5: the traffic each version ships,
broken into modified / undo / meta-data.

The paper's headline: Version 3 wins *despite sending more bytes than
Version 2*, because its log writes coalesce into large Memory Channel
packets while the mirror versions' scattered writes ride in small ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.experiments.common import (
    PAPER_DB_BYTES,
    WORKLOADS,
    ExperimentContext,
    passive_cell,
    throughputs,
    traffic_table,
    traffics,
    version_table,
)
from repro.perf.report import ReportTable
from repro.vista.factory import ENGINE_VERSIONS


@dataclass
class Table45Result:
    tps: Dict[str, Dict[str, float]]
    traffic_mb: Dict[str, Dict[str, Dict[str, float]]]

    def table4(self) -> ReportTable:
        return version_table(
            "Table 4: Primary-backup (passive) throughput (txns/sec)",
            "passive", self.tps,
            "V3 outperforms the mirror versions despite shipping more "
            "bytes — its contiguous log coalesces into 32-byte packets",
        )

    def table5(self) -> ReportTable:
        return traffic_table(
            "Table 5: Data transferred to the passive backup "
            "(MB, paper-length run)",
            "benchmark/version",
            [(workload, version, measured, version)
             for workload, versions in self.traffic_mb.items()
             for version, measured in versions.items()],
        )

    def check(self) -> None:
        for workload in WORKLOADS:
            tps = self.tps[workload]
            assert tps["v3"] > tps["v2"] > tps["v1"] > tps["v0"], (
                f"{workload}: passive ordering violated: {tps}"
            )
            # V3 ships more than V2 yet wins (the locality argument).
            v3_total = sum(self.traffic_mb[workload]["v3"].values())
            v2_total = sum(self.traffic_mb[workload]["v2"].values())
            assert v3_total > v2_total, (workload, v3_total, v2_total)
            # V0 ships an order of magnitude more than any other version.
            v0_total = sum(self.traffic_mb[workload]["v0"].values())
            assert v0_total > 3 * v3_total, (workload, v0_total, v3_total)


def reads(workload: str) -> dict:
    return {
        version: (passive_cell(version, workload), PAPER_DB_BYTES)
        for version in ENGINE_VERSIONS
    }


def run(ctx: ExperimentContext) -> Table45Result:
    return Table45Result(
        tps=throughputs(ctx, reads), traffic_mb=traffics(ctx, reads)
    )
