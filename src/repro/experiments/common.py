"""Shared experiment machinery.

:class:`ExperimentContext` owns the settings, a measured cell's
identity (what drives the run, never the nominal size it is read at)
and lifetime (its system is closed as soon as it is measured), and
produces the calibrated throughput estimator. The calibration fits
exactly two numbers — the per-benchmark base cost, anchored to Table
3's Version 3 standalone row — and everything else in every experiment
is a prediction from measured counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.hardware.writebuffer import WriteBufferModel
from repro.memory.rio import RioMemory
from repro.perf.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perf.throughput import ThroughputEstimator, calibrate_bases
from repro.replication.active import ActiveReplicatedSystem
from repro.replication.passive import PassiveReplicatedSystem
from repro.vista.api import EngineConfig
from repro.vista.factory import engine_class
from repro.vista.v3_inline_log import InlineLogEngine
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

    def __post_init__(self):
        if self.transactions < 1 or self.warmup < 0:
            raise ConfigurationError(
                f"need transactions >= 1 and warmup >= 0, got {self}"
            )

    def engine_config(self, nominal: Optional[int] = None) -> EngineConfig:
        return EngineConfig(
            db_bytes=self.allocated_db_bytes,
            nominal_db_bytes=nominal or self.nominal_db_bytes,
            log_bytes=self.log_bytes,
        )


class ExperimentContext:
    """Runs and caches the measurements behind the tables/figures.

    A cell is keyed by what *drives* its run — ``("standalone",
    version, workload)``, ``("passive", version, workload,
    ship_undo_log, coalescing)``, ``("active", workload, coalescing)``
    — never by nominal database size: nothing a driven run executes
    reads it (DESIGN §7), so ``*_result(..., nominal)`` is a view of
    the one cached run with its working sets declared at that size.
    """

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

    # -- measured runs ----------------------------------------------------------

    def _build(self, key: Tuple):
        """A fresh system for cell ``key`` and its workload's name."""
        config = self.settings.engine_config()
        kind, *args = key
        if kind == "standalone":
            version, workload_name = args
            rio = RioMemory(f"standalone-{version}-{workload_name}")
            return engine_class(version).create(rio, config), workload_name
        if kind == "passive":
            version, workload_name, ship_undo_log, coalescing = args
            system = PassiveReplicatedSystem(
                version, config, ship_undo_log=ship_undo_log
            )
            interface = system.interface
        else:
            workload_name, coalescing = args
            system = ActiveReplicatedSystem(config)
            interface = system.primary_interface
        if not coalescing:
            _disable_coalescing(interface)
        return system, workload_name

    def driven(self, key: Tuple) -> RunResult:
        """Cell ``key`` as driven, measured on first use. A ``RunResult``
        holds only detached statistics, so the system is closed as soon
        as it is measured and its regions freed by reference count (a
        standalone engine has nothing to close): one live system at a
        time, nothing left for a cyclic collection."""
        if key not in self._cache:
            target, workload_name = self._build(key)
            try:
                workload = WORKLOAD_CLASSES[workload_name](
                    self.settings.allocated_db_bytes, seed=self.settings.seed
                )
                workload.setup(target)
                if hasattr(target, "sync_initial"):
                    target.sync_initial()
                self._cache[key] = run_workload(
                    target, workload, self.settings.transactions,
                    warmup=self.settings.warmup, verify=True,
                )
            finally:
                if hasattr(target, "close"):
                    target.close()
        return self._cache[key]

    def _at_nominal(self, key: Tuple, engine, nominal: Optional[int]) -> RunResult:
        """A copy of cell ``key``'s result whose profile declares
        ``engine``'s working sets at ``nominal``; the cached run is
        never mutated, so one run reads at any number of sizes."""
        result = self.driven(key)
        sizes = dict(engine.working_sets(self.settings.engine_config(nominal)))
        return replace(
            result, profile=replace(result.profile, working_set_bytes=sizes)
        )

    def standalone_result(
        self, version: str, workload_name: str, nominal: Optional[int] = None
    ) -> RunResult:
        key = ("standalone", version, workload_name)
        return self._at_nominal(key, engine_class(version), nominal)

    def passive_result(
        self,
        version: str,
        workload_name: str,
        nominal: Optional[int] = None,
        ship_undo_log: bool = False,
        coalescing: bool = True,
    ) -> RunResult:
        key = ("passive", version, workload_name, ship_undo_log, coalescing)
        return self._at_nominal(key, engine_class(version), nominal)

    def active_result(
        self, workload_name: str, nominal: Optional[int] = None,
        coalescing: bool = True,
    ) -> RunResult:
        key = ("active", workload_name, coalescing)
        return self._at_nominal(key, InlineLogEngine, nominal)

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
