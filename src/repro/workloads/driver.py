"""The workload driver.

Runs a workload's transaction stream against any target (standalone
engine, passive or active replicated system) and collects everything
the performance model needs: engine operation counters, the access
profile, the Memory Channel packet trace and categorized traffic.

Transactions are issued sequentially and as fast as possible, with no
terminal I/O, exactly as the paper's benchmarks are driven.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.san.packets import PacketTrace
from repro.vista.api import TransactionEngine
from repro.vista.stats import AccessProfile, EngineCounters
from repro.workloads.base import TransactionTarget, Workload


@dataclass
class RunResult:
    """Everything measured over one driven run."""

    workload: str
    target_kind: str
    transactions: int
    counters: EngineCounters
    profile: AccessProfile
    traffic_bytes: Dict[str, int] = field(default_factory=dict)
    packet_trace: Optional[PacketTrace] = None
    io_stores: int = 0
    ack_bytes: int = 0
    redo_records: Optional[int] = None
    #: Always False: the driver runs every transaction. The frozen
    #: performance ledger still records the field.
    crashed: bool = False

    @property
    def total_traffic_bytes(self) -> int:
        return sum(self.traffic_bytes.values())

    def traffic_per_txn(self) -> Dict[str, float]:
        """Bytes per transaction by category, plus the total."""
        txns = max(1, self.transactions)
        per_txn = {
            category: count / txns for category, count in self.traffic_bytes.items()
        }
        per_txn["total"] = self.total_traffic_bytes / txns
        return per_txn

    def profile_per_txn(self) -> AccessProfile:
        return self.profile.scaled(1.0 / max(1, self.transactions))

    def packets_per_txn(self) -> PacketTrace:
        return self.packet_trace.scaled(1.0 / max(1, self.transactions))


def _engine_of(target: TransactionTarget) -> TransactionEngine:
    """The engine doing the transactional work inside ``target``."""
    if isinstance(target, TransactionEngine):
        return target
    engine = getattr(target, "engine", None)
    if isinstance(engine, TransactionEngine):
        return engine
    raise TypeError(f"cannot find a transaction engine inside {target!r}")


def _target_kind(target: TransactionTarget) -> str:
    if isinstance(target, TransactionEngine):
        return f"standalone-{target.VERSION}"
    return type(target).__name__


def run_workload(
    target: TransactionTarget,
    workload: Workload,
    transactions: int,
    warmup: int = 0,
    verify: bool = False,
) -> RunResult:
    """Drive ``transactions`` through ``workload`` against ``target``.

    ``warmup`` transactions run first and are excluded from every
    statistic (counters, traffic, packets). To crash at commit ``k``,
    drive ``k`` transactions and fail the target afterwards.
    """
    engine = _engine_of(target)
    interface = getattr(target, "interface", None) or getattr(
        target, "primary_interface", None
    )

    for _ in range(warmup):
        workload.run_transaction(target)

    # Reset statistics after warmup so results are steady-state. The
    # reset is in place — never a fresh object — so an EngineCounters
    # registry bridge or observer holding the old reference keeps
    # seeing live counts.
    engine.counters.reset()
    engine.profile.reset()
    for name, size in engine.working_sets(engine.config):
        engine.profile.declare(name, size)
    if interface is not None:
        interface.reset_stats()
    redo_baseline = getattr(target, "redo_records_shipped", 0)

    for _ in range(transactions):
        workload.run_transaction(target)

    if verify:
        workload.verify(target)

    result = RunResult(
        workload=workload.name,
        target_kind=_target_kind(target),
        transactions=transactions,
        counters=engine.counters,
        profile=engine.profile,
    )
    if interface is not None:
        result.traffic_bytes = {
            category.value: count
            for category, count in interface.bytes_by_category.items()
        }
        result.packet_trace = interface.trace
        result.io_stores = interface.io_stores
        backup_interface = getattr(target, "backup_interface", None)
        if backup_interface is not None:
            result.ack_bytes = backup_interface.bytes_sent
        shipped = getattr(target, "redo_records_shipped", None)
        if shipped is not None:
            result.redo_records = shipped - redo_baseline
    return result
