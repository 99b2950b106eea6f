"""Operation counts -> simulated hardware time.

The :class:`CostModel` converts a :class:`~repro.workloads.driver.RunResult`
(operation counters, access profile, packet trace) into per-transaction
CPU time, cache-stall time and SAN link time, each broken down by
component so the paper's qualitative arguments are visible in the
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.cache import AnalyticCacheModel
from repro.hardware.cpu import CostAccumulator
from repro.perf.calibration import (
    APPLY_BYTE_US, APPLY_RECORD_US, ARRAY_PUSH_US, BUMP_ALLOC_US,
    COMPARE_BYTE_US, COPY_BYTE_US, DB_WRITE_US, DEFAULT_CALIBRATION,
    FALLBACK_BASE_US, FREE_US, IO_BYTE_US, IO_STORE_US, LIST_OP_US, MALLOC_US,
    PUBLISH_US, REDO_BYTE_US, REDO_RECORD_US, SET_RANGE_US, WALK_STEP_US,
    WRITE_BYTE_US, Calibration,
)
from repro.workloads.driver import RunResult


@dataclass
class CostBreakdown:
    """Per-transaction time, split into its sources."""

    cpu: CostAccumulator
    cache_stall_us: float
    link_time_us: float
    io_issue_us: float

    @property
    def cpu_total_us(self) -> float:
        """All primary-CPU time per transaction (compute + stalls +
        I/O-space store issue)."""
        return self.cpu.total_us() + self.cache_stall_us + self.io_issue_us


class CostModel:
    """Applies a :class:`Calibration` to measured run results."""

    def __init__(self, calibration: Calibration = DEFAULT_CALIBRATION):
        self.calibration = calibration
        self.cache = AnalyticCacheModel(calibration.machine.board_cache)

    # -- pieces ---------------------------------------------------------------

    def engine_cpu_us(self, result: RunResult) -> CostAccumulator:
        """Per-transaction CPU compute time of the engine + benchmark."""
        per_txn = result.counters.per_transaction()
        acc = CostAccumulator()
        acc.charge("base", self.calibration.txn_base_us.get(
            result.workload, FALLBACK_BASE_US))
        acc.charge("set_range", per_txn["set_ranges"] * SET_RANGE_US)
        acc.charge(
            "db_write",
            per_txn["db_writes"] * DB_WRITE_US
            + per_txn["db_bytes_written"] * WRITE_BYTE_US,
        )
        acc.charge("undo_copy", per_txn["undo_bytes_copied"] * COPY_BYTE_US)
        acc.charge("compare", per_txn["bytes_compared"] * COMPARE_BYTE_US)
        acc.charge(
            "heap",
            per_txn["mallocs"] * MALLOC_US + per_txn["frees"] * FREE_US,
        )
        acc.charge(
            "list",
            per_txn["list_ops"] * LIST_OP_US
            + per_txn["walk_steps"] * WALK_STEP_US,
        )
        acc.charge(
            "alloc_fast",
            per_txn["bump_allocs"] * BUMP_ALLOC_US
            + per_txn["array_pushes"] * ARRAY_PUSH_US,
        )
        return acc

    def cache_stall_us(self, result: RunResult) -> float:
        """Per-transaction stall time from the analytic cache model."""
        profile = result.profile_per_txn()
        stall = 0.0
        for name, lines in profile.random_lines.items():
            working_set = profile.working_set_bytes.get(name, 0)
            stall += self.cache.miss_time_us(working_set, lines)
        for _name, nbytes in profile.sequential_bytes.items():
            stall += self.cache.sequential_miss_time_us(nbytes)
        return stall

    def io_issue_us(self, result: RunResult) -> float:
        """Per-transaction CPU cost of issuing I/O-space stores (the
        second half of every doubled write, or the redo-ring stores)."""
        txns = max(1, result.transactions)
        return (
            result.io_stores / txns * IO_STORE_US
            + result.total_traffic_bytes / txns * IO_BYTE_US
        )

    def link_time_us(self, result: RunResult) -> float:
        """Per-transaction SAN link occupancy from the packet trace."""
        if result.packet_trace is None:
            return 0.0
        per_txn = result.packets_per_txn()
        return per_txn.link_time_us(self.calibration.san)

    def redo_cpu_us(self, result: RunResult, records_per_txn: float,
                    payload_bytes_per_txn: float) -> float:
        """Extra primary CPU for building and publishing redo records."""
        return (
            records_per_txn * REDO_RECORD_US
            + payload_bytes_per_txn * REDO_BYTE_US
            + PUBLISH_US
        )

    def backup_apply_us(self, records_per_txn: float,
                        payload_bytes_per_txn: float) -> float:
        """Backup CPU per transaction in the active scheme."""
        return (
            records_per_txn * APPLY_RECORD_US
            + payload_bytes_per_txn * APPLY_BYTE_US
        )

    # -- composition --------------------------------------------------------------

    def breakdown(self, result: RunResult) -> CostBreakdown:
        return CostBreakdown(
            cpu=self.engine_cpu_us(result),
            cache_stall_us=self.cache_stall_us(result),
            link_time_us=self.link_time_us(result),
            io_issue_us=self.io_issue_us(result),
        )

    def combine_cpu_and_link(self, cpu_us: float, link_us: float) -> float:
        """Per-transaction time when computation and posted I/O-space
        writes overlap imperfectly: the longer of the two plus the
        un-hidden ``overlap`` fraction of the shorter."""
        longer = max(cpu_us, link_us)
        shorter = min(cpu_us, link_us)
        return longer + self.calibration.overlap * shorter
