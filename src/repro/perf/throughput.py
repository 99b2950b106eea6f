"""Throughput estimation for every configuration the paper measures.

The estimator composes the cost model:

* **standalone** — transaction time is pure primary CPU time (compute
  plus cache stalls); there is no SAN.
* **passive backup** — the primary additionally issues the doubled
  I/O-space stores; the resulting packet stream occupies the link.
  Posted writes overlap with computation imperfectly (the ``overlap``
  calibration constant), so the transaction time is
  ``max(cpu, link) + overlap * min(cpu, link)``.
* **active backup** — the primary's extra work is building and
  publishing redo records; the link carries only the redo stream. The
  backup's apply time runs concurrently and only matters if it exceeds
  the primary's transaction time (it never does in practice, matching
  the paper's "it can easily keep up").
* **SMP primary** — n independent streams share one link: aggregate
  throughput is the smaller of n times the single-stream rate and the
  link's carrying capacity for that protocol's packet mix (Section 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.perf.calibration import (
    DEFAULT_CALIBRATION, PAPER, TWO_SAFE_ACK_US, Calibration,
)
from repro.perf.costmodel import CostBreakdown, CostModel
from repro.workloads.driver import RunResult

US_PER_SECOND = 1e6


@dataclass
class ThroughputReport:
    """A throughput estimate and the pieces it was computed from."""

    mode: str
    txn_time_us: float
    tps: float
    cpu_us: float
    link_us: float
    breakdown: CostBreakdown
    backup_cpu_us: float = 0.0

    @staticmethod
    def from_time(mode: str, txn_time_us: float, breakdown: CostBreakdown,
                  cpu_us: float, link_us: float,
                  backup_cpu_us: float = 0.0) -> "ThroughputReport":
        return ThroughputReport(
            mode=mode,
            txn_time_us=txn_time_us,
            tps=US_PER_SECOND / txn_time_us,
            cpu_us=cpu_us,
            link_us=link_us,
            breakdown=breakdown,
            backup_cpu_us=backup_cpu_us,
        )


class ThroughputEstimator:
    """Turns driven :class:`RunResult` s into throughput numbers."""

    def __init__(self, calibration: Calibration = DEFAULT_CALIBRATION):
        self.calibration = calibration
        self.model = CostModel(calibration)

    # -- single-stream configurations ------------------------------------------

    def standalone(self, result: RunResult) -> ThroughputReport:
        breakdown = self.model.breakdown(result)
        cpu = breakdown.cpu.total_us() + breakdown.cache_stall_us
        return ThroughputReport.from_time(
            "standalone", cpu, breakdown, cpu_us=cpu, link_us=0.0
        )

    def passive(self, result: RunResult) -> ThroughputReport:
        breakdown = self.model.breakdown(result)
        cpu = breakdown.cpu_total_us
        link = breakdown.link_time_us
        txn_time = self.model.combine_cpu_and_link(cpu, link)
        return ThroughputReport.from_time(
            "passive", txn_time, breakdown, cpu_us=cpu, link_us=link
        )

    def active(self, result: RunResult, two_safe: bool = False) -> ThroughputReport:
        breakdown = self.model.breakdown(result)
        txns = max(1, result.transactions)
        per_txn = result.counters.per_transaction()
        records_per_txn = self._redo_records_per_txn(result)
        payload_per_txn = per_txn["db_bytes_written"]
        redo_cpu = self.model.redo_cpu_us(result, records_per_txn, payload_per_txn)
        # The engine's own work (V3 locally) plus redo construction; the
        # I/O-issue cost is already measured from the ring stores.
        cpu = (
            breakdown.cpu.total_us()
            + breakdown.cache_stall_us
            + breakdown.io_issue_us
            + redo_cpu
        )
        if two_safe:
            cpu += TWO_SAFE_ACK_US + 2.0 * self.calibration.san.latency_us
        # Consumer-pointer acks ride the link's reverse path (the
        # Memory Channel is full duplex), so only the redo stream
        # occupies the forward direction.
        link = breakdown.link_time_us
        backup_cpu = self.model.backup_apply_us(records_per_txn, payload_per_txn)
        txn_time = self.model.combine_cpu_and_link(cpu, link)
        # The backup applies concurrently; it binds only if slower.
        txn_time = max(txn_time, backup_cpu)
        return ThroughputReport.from_time(
            "active", txn_time, breakdown, cpu_us=cpu, link_us=link,
            backup_cpu_us=backup_cpu,
        )

    def _redo_records_per_txn(self, result: RunResult) -> float:
        redo = getattr(result, "redo_records", None)
        if redo is not None:
            return redo / max(1, result.transactions)
        # Fall back to the coalesced write count: one record per write
        # extent; db_writes is an upper bound.
        return result.counters.db_writes / max(1, result.transactions)

    # -- SMP primary (Section 8) ---------------------------------------------------

    def smp_aggregate(
        self, single: ThroughputReport, processors: int
    ) -> float:
        """Aggregate transactions/second with ``processors`` independent
        streams sharing one Memory Channel link."""
        if processors < 1:
            raise ValueError("need at least one processor")
        if single.link_us <= 0:
            return processors * single.tps
        link_capacity_tps = US_PER_SECOND / single.link_us
        return min(processors * single.tps, link_capacity_tps)

    # -- calibration anchoring -------------------------------------------------------

def calibrate_bases(
    estimator_calibration: Calibration,
    v3_standalone_results: Dict[str, RunResult],
) -> Calibration:
    """Solve the per-benchmark base cost so that Version 3's standalone
    throughput matches Table 3 (the only fitted throughput numbers; all
    other rows are predictions).

    Args:
        v3_standalone_results: workload name -> RunResult of a V3
            standalone run at the paper's 50 MB nominal size.
    """
    model = CostModel(estimator_calibration)
    bases = {}
    for workload, result in v3_standalone_results.items():
        target_us = US_PER_SECOND / PAPER["standalone"][workload]["v3"]
        breakdown = model.breakdown(result)
        charged = (
            breakdown.cpu.total_us()
            - breakdown.cpu["base"]
            + breakdown.cache_stall_us
        )
        bases[workload] = max(0.1, target_us - charged)
    return estimator_calibration.with_bases(bases)
