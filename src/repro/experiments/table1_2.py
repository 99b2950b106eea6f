"""Tables 1 and 2 — the straightforward cluster implementation.

Table 1: transaction throughput of unmodified Vista (Version 0),
standalone versus with every data structure write-doubled to a passive
backup. Table 2: where the bytes went — almost all of the traffic is
allocator/list metadata, which is the paper's motivation for
restructuring the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.experiments.common import (
    CATEGORIES,
    PAPER_DB_BYTES,
    WORKLOAD_COLUMNS,
    WORKLOADS,
    ExperimentContext,
    passive_cell,
    standalone_cell,
    throughputs,
    traffic_mb,
)
from repro.perf.calibration import PAPER
from repro.perf.report import ReportTable

LABELS = {"modified": "Modified data", "undo": "Undo log",
          "meta": "Meta-data", "total": "Total data"}


@dataclass
class Table12Result:
    throughput: Dict[str, Dict[str, float]]  # workload -> mode -> tps
    traffic: Dict[str, Dict[str, float]]  # workload -> category -> MB

    def table1(self) -> ReportTable:
        table = ReportTable.against_paper(
            "Table 1: Straightforward implementation throughput (txns/sec)",
            "configuration", WORKLOAD_COLUMNS,
        )
        for mode, label in (("standalone", "Single machine"),
                            ("passive", "Primary-backup")):
            table.add_compared_row(label, [
                (self.throughput[workload][mode], PAPER[mode][workload]["v0"])
                for workload in WORKLOADS
            ])
        for workload in WORKLOADS:
            drop = (
                self.throughput[workload]["standalone"]
                / self.throughput[workload]["passive"]
            )
            paper_drop = (
                PAPER["standalone"][workload]["v0"]
                / PAPER["passive"][workload]["v0"]
            )
            table.add_note(
                f"{workload}: throughput drops {drop:.1f}x "
                f"(paper: {paper_drop:.1f}x)"
            )
        return table

    def table2(self) -> ReportTable:
        table = ReportTable.against_paper(
            "Table 2: Data communicated to the backup (MB, paper-length run)",
            "category", WORKLOAD_COLUMNS,
        )
        measured = {
            workload: {**traffic, "total": sum(traffic.values())}
            for workload, traffic in self.traffic.items()
        }
        for category, label in LABELS.items():
            table.add_compared_row(label, [
                (measured[workload][category],
                 PAPER["traffic_mb"][workload]["v0"][category])
                for workload in WORKLOADS
            ])
        table.add_note(
            "meta-data dominates: the heap allocator and linked-list "
            "bookkeeping all cross the SAN in the straightforward scheme"
        )
        return table

    def check(self) -> None:
        for workload in WORKLOADS:
            standalone = self.throughput[workload]["standalone"]
            passive = self.throughput[workload]["passive"]
            assert passive < standalone / 2, (
                f"{workload}: straightforward replication must collapse "
                f"throughput (got {standalone} -> {passive})"
            )
            traffic = self.traffic[workload]
            payload = traffic["modified"] + traffic["undo"]
            assert traffic["meta"] > payload, (
                f"{workload}: metadata must dominate V0 traffic: {traffic}"
            )


def reads(workload: str) -> dict:
    return {
        "standalone": (standalone_cell("v0", workload), PAPER_DB_BYTES),
        "passive": (passive_cell("v0", workload), PAPER_DB_BYTES),
    }


def run(ctx: ExperimentContext) -> Table12Result:
    traffic: Dict[str, Dict[str, float]] = {}
    for workload in WORKLOADS:
        shipped = traffic_mb(ctx.read(*reads(workload)["passive"]), workload)
        traffic[workload] = {
            category: shipped.get(category, 0.0) for category in CATEGORIES
        }
    return Table12Result(throughput=throughputs(ctx, reads), traffic=traffic)
