"""Shared experiment machinery.

:class:`ExperimentContext` owns the settings, runs (and caches) the
driven workload measurements each experiment needs, and produces the
calibrated throughput estimator. The calibration fits exactly two
numbers — the per-benchmark base cost, anchored to Table 3's Version 3
standalone row — and everything else in every experiment is a
prediction from measured counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.hardware.writebuffer import WriteBufferModel
from repro.memory.rio import RioMemory
from repro.perf.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perf.throughput import ThroughputEstimator, calibrate_bases
from repro.replication.active import ActiveReplicatedSystem
from repro.replication.passive import PassiveReplicatedSystem
from repro.vista.api import EngineConfig
from repro.vista.factory import create_engine
from repro.workloads import (
    DebitCreditWorkload,
    OrderEntryWorkload,
    RunResult,
    run_workload,
)

MB = 1024 * 1024

WORKLOAD_CLASSES = {
    "debit-credit": DebitCreditWorkload,
    "order-entry": OrderEntryWorkload,
}

#: The paper's default database size (Section 2.4).
PAPER_DB_BYTES = 50 * MB


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs controlling experiment cost/fidelity."""

    transactions: int = 1500
    warmup: int = 100
    seed: int = 42
    allocated_db_bytes: int = 8 * MB
    log_bytes: int = 2 * MB
    nominal_db_bytes: int = PAPER_DB_BYTES

    def engine_config(self, nominal: Optional[int] = None) -> EngineConfig:
        return EngineConfig(
            db_bytes=self.allocated_db_bytes,
            nominal_db_bytes=nominal or self.nominal_db_bytes,
            log_bytes=self.log_bytes,
        )


class ExperimentContext:
    """Runs and caches the measurements behind the tables/figures."""

    def __init__(self, settings: Optional[ExperimentSettings] = None,
                 calibration: Calibration = DEFAULT_CALIBRATION):
        self.settings = settings or ExperimentSettings()
        self._base_calibration = calibration
        self._calibrated: Optional[Calibration] = None
        self._cache: Dict[Tuple, RunResult] = {}
        self._memo: Dict[Tuple, object] = {}

    # -- precomputation hooks ------------------------------------------------

    def memo(self, key: Tuple, thunk):
        """Memoized derived computation (e.g. a discrete-event SMP
        simulation), computed inline on first use."""
        if key not in self._memo:
            self._memo[key] = thunk()
        return self._memo[key]

    def preload(self, cells: Dict) -> None:
        """Seed the run cache with values computed elsewhere (the
        ``--jobs`` runner computes cells in worker processes and
        installs them here before rendering). Any cell missing from
        the preload is simply computed inline."""
        self._cache.update(cells)

    # -- workload helpers ---------------------------------------------------

    def _workload(self, name: str):
        cls = WORKLOAD_CLASSES[name]
        return cls(self.settings.allocated_db_bytes, seed=self.settings.seed)

    def _run(self, key: Tuple, target, workload) -> RunResult:
        if key in self._cache:
            return self._cache[key]
        workload.setup(target)
        sync = getattr(target, "sync_initial", None)
        if sync is not None:
            sync()
        result = run_workload(
            target,
            workload,
            self.settings.transactions,
            warmup=self.settings.warmup,
            verify=True,
        )
        self._cache[key] = result
        return result

    # -- measured runs ----------------------------------------------------------

    def standalone_result(
        self, version: str, workload_name: str, nominal: Optional[int] = None
    ) -> RunResult:
        key = ("standalone", version, workload_name, nominal)
        if key in self._cache:
            return self._cache[key]
        config = self.settings.engine_config(nominal)
        rio = RioMemory(f"standalone-{version}-{workload_name}")
        engine = create_engine(version, rio, config)
        return self._run(key, engine, self._workload(workload_name))

    def passive_result(
        self,
        version: str,
        workload_name: str,
        nominal: Optional[int] = None,
        ship_undo_log: bool = False,
        coalescing: bool = True,
    ) -> RunResult:
        key = ("passive", version, workload_name, nominal, ship_undo_log, coalescing)
        if key in self._cache:
            return self._cache[key]
        config = self.settings.engine_config(nominal)
        system = PassiveReplicatedSystem(
            version, config, ship_undo_log=ship_undo_log
        )
        if not coalescing:
            _disable_coalescing(system.interface)
        return self._run(key, system, self._workload(workload_name))

    def active_result(
        self, workload_name: str, nominal: Optional[int] = None,
        coalescing: bool = True,
    ) -> RunResult:
        key = ("active", workload_name, nominal, coalescing)
        if key in self._cache:
            return self._cache[key]
        config = self.settings.engine_config(nominal)
        system = ActiveReplicatedSystem(config)
        if not coalescing:
            _disable_coalescing(system.primary_interface)
        return self._run(key, system, self._workload(workload_name))

    # -- calibration ----------------------------------------------------------------

    def calibration(self) -> Calibration:
        """The calibrated constants: base costs anchored to Table 3's
        Version 3 standalone row at the paper's 50 MB database."""
        if self._calibrated is None:
            anchors = {
                name: self.standalone_result("v3", name, PAPER_DB_BYTES)
                for name in WORKLOAD_CLASSES
            }
            self._calibrated = calibrate_bases(self._base_calibration, anchors)
        return self._calibrated

    def estimator(self) -> ThroughputEstimator:
        return ThroughputEstimator(self.calibration())


def _disable_coalescing(interface) -> None:
    """Ablation hook: make every I/O-space store its own packet by
    shrinking the write buffers to one 4-byte slot (models a network
    interface with no write-combining)."""
    interface.write_buffer = WriteBufferModel(
        num_buffers=1, block_bytes=4, on_packet=interface.trace.record
    )


def scale_to_paper_mb(bytes_per_txn: float, workload_name: str) -> float:
    """Convert measured bytes/transaction into the MB a paper-length
    run would ship, for side-by-side comparison with Tables 2/5/7.

    The paper's runs are ~4.98 M Debit-Credit transactions (22.8 s at
    218,627 tps) and ~457 k Order-Entry transactions (6.2 s at
    73,748 tps).
    """
    paper_txns = {"debit-credit": 4_984_695, "order-entry": 457_238}
    return bytes_per_txn * paper_txns[workload_name] / MB
