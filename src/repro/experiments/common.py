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
from repro.perf.calibration import Calibration, DEFAULT_CALIBRATION, PAPER
from repro.perf.report import ReportTable
from repro.perf.throughput import (
    ThroughputEstimator,
    ThroughputReport,
    calibrate_bases,
)
from repro.replication.active import ActiveReplicatedSystem
from repro.replication.passive import PassiveReplicatedSystem
from repro.vista.api import EngineConfig
from repro.vista.factory import ENGINE_VERSIONS, engine_class
from repro.vista.v3_inline_log import InlineLogEngine
from repro.workloads import WORKLOADS as WORKLOAD_CLASSES
from repro.workloads import RunResult, run_workload

MB = 1024 * 1024

#: The paper's two benchmarks, in the order every table prints them.
WORKLOADS = tuple(WORKLOAD_CLASSES)
#: ...and the column headings they print under.
WORKLOAD_COLUMNS = ("Debit-Credit", "Order-Entry")
#: The traffic categories of Tables 2, 5 and 7, in column order.
CATEGORIES = ("modified", "undo", "meta")

#: The paper's default database size (Section 2.4).
PAPER_DB_BYTES = 50 * MB

#: A cell spec: what drives one run, kind first — the context-cache
#: key, and ``spec[0]`` the :class:`ThroughputEstimator` method that
#: prices it.
CellSpec = Tuple


def standalone_cell(version: str, workload: str) -> CellSpec:
    return ("standalone", version, workload)


def passive_cell(version: str, workload: str, ship_undo_log: bool = False,
                 coalescing: bool = True) -> CellSpec:
    return ("passive", version, workload, ship_undo_log, coalescing)


def active_cell(workload: str, coalescing: bool = True) -> CellSpec:
    return ("active", workload, coalescing)


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
    reads it (DESIGN §7), so ``read(spec, nominal)`` is a view of the
    one cached run with its working sets declared at that size.
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
        installs them here before rendering; its plan is the
        experiments' own ``reads``, so rendering drives nothing)."""
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

    def read(self, spec: CellSpec, nominal: Optional[int] = None) -> RunResult:
        """A copy of cell ``spec``'s result whose profile declares its
        engine's working sets at ``nominal``; the cached run is never
        mutated, so one run reads at any number of sizes."""
        result = self.driven(spec)
        engine = InlineLogEngine if spec[0] == "active" else engine_class(spec[1])
        sizes = dict(engine.working_sets(self.settings.engine_config(nominal)))
        return replace(
            result, profile=replace(result.profile, working_set_bytes=sizes)
        )

    def report(self, spec: CellSpec, nominal: Optional[int] = None,
               **estimator_options) -> ThroughputReport:
        """Cell ``spec`` read at ``nominal`` and priced by the
        estimator method its kind names."""
        price = getattr(self.estimator(), spec[0])
        return price(self.read(spec, nominal), **estimator_options)

    # -- calibration ----------------------------------------------------------------

    def calibration(self) -> Calibration:
        """The calibrated constants: base costs anchored to Table 3's
        Version 3 standalone row at the paper's 50 MB database."""
        if self._calibrated is None:
            anchors = {
                name: self.read(standalone_cell("v3", name), PAPER_DB_BYTES)
                for name in WORKLOADS
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
    run would ship, for side-by-side comparison with Tables 2/5/7."""
    return bytes_per_txn * PAPER["run_transactions"][workload_name] / MB


def traffic_mb(result: RunResult, workload_name: str) -> Dict[str, float]:
    """What ``result`` shipped, by category, in paper-length-run MB."""
    return {
        category: scale_to_paper_mb(count, workload_name)
        for category, count in result.traffic_per_txn().items()
        if category != "total"
    }


def throughputs(ctx: ExperimentContext, reads) -> Dict[str, Dict[str, float]]:
    """workload -> label -> transactions/second, over an experiment's
    ``reads(workload) -> {label: (spec, nominal)}``."""
    return {
        workload: {
            label: ctx.report(*read).tps
            for label, read in reads(workload).items()
        }
        for workload in WORKLOADS
    }


def traffics(ctx: ExperimentContext, reads) -> Dict[str, Dict[str, Dict[str, float]]]:
    """workload -> label -> category -> MB shipped, over the same."""
    return {
        workload: {
            label: traffic_mb(ctx.read(*read), workload)
            for label, read in reads(workload).items()
        }
        for workload in WORKLOADS
    }


def version_table(title: str, mode: str, tps, note: str) -> ReportTable:
    """Tables 3 and 4: one row per engine version against ``PAPER[mode]``."""
    table = ReportTable.against_paper(
        title, "version", WORKLOAD_COLUMNS, ratios=True
    )
    for version, engine in ENGINE_VERSIONS.items():
        table.add_compared_row(engine.TITLE, [
            (tps[workload][version], PAPER[mode][workload][version])
            for workload in WORKLOADS
        ])
    table.add_note(note)
    return table


def traffic_table(title: str, label: str, rows) -> ReportTable:
    """Tables 5 and 7: per ``(workload, row name, measured MB by
    category, PAPER["traffic_mb"] row key)``, each category and the
    total beside the paper's."""
    table = ReportTable.against_paper(title, label, CATEGORIES + ("total",))
    for workload, name, measured, paper_key in rows:
        paper = PAPER["traffic_mb"][workload][paper_key]
        table.add_compared_row(
            f"{workload} {name}",
            [(measured.get(category, 0.0), paper[category])
             for category in CATEGORIES]
            + [(sum(measured.values()), paper["total"])],
        )
    return table
