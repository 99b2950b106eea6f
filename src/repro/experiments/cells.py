"""Cell plans for the process-parallel experiment runner.

The experiments share one :class:`~repro.experiments.common.
ExperimentContext` cache, and every cache entry — a *cell* — is a pure
function of the :class:`ExperimentSettings` (each cell builds a fresh
system and a fresh seeded workload). That makes cells safe to compute
in worker processes: the runner fans the plan over a pool, installs
the returned ``RunResult`` objects via ``ctx.preload()``, and renders
the experiments sequentially in-process, so the output is byte for
byte what a sequential run prints, at any ``--jobs`` value.

The plan is advisory, not load-bearing: a cell missing from the plan
(say, after an experiment module grows a new configuration) is simply
computed inline by the rendering pass, exactly as without ``--jobs``.

Cells are driven workload runs, keyed exactly like the context cache
(``("passive", version, workload, nominal, ship_undo_log,
coalescing)`` and friends). The ``smp-validation`` extension's
discrete-event points are not fanned out: all 24 cost about a second,
so it computes them inline from the preloaded cells.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.experiments.common import (
    MB,
    PAPER_DB_BYTES,
    ExperimentContext,
    ExperimentSettings,
)

WORKLOADS = ("debit-credit", "order-entry")
VERSIONS = ("v0", "v1", "v2", "v3")
STREAM_DB_BYTES = 10 * MB

#: A cell spec: (kind, full argument tuple of the context method).
CellSpec = Tuple[str, tuple]

#: Anchors for :meth:`ExperimentContext.calibration`.
CALIBRATION_CELLS: List[CellSpec] = [
    ("standalone", ("v3", workload, PAPER_DB_BYTES)) for workload in WORKLOADS
]

_SMP_CONFIGS = ("active", "passive-v3", "passive-v1")
_SMP_PROCESSORS = (1, 2, 3, 4)
_SMP_DURATION_US = 20_000.0


def _experiment_cells(key: str) -> List[CellSpec]:
    """The driven-run cells experiment ``key`` reads from the cache."""
    paper, stream = PAPER_DB_BYTES, STREAM_DB_BYTES
    cells: List[CellSpec] = []
    if key == "table1":
        for workload in WORKLOADS:
            cells.append(("standalone", ("v0", workload, paper)))
            cells.append(("passive", ("v0", workload, paper, False, True)))
    elif key == "table3":
        for workload in WORKLOADS:
            for version in VERSIONS:
                cells.append(("standalone", (version, workload, paper)))
    elif key == "table4":
        for workload in WORKLOADS:
            for version in VERSIONS:
                cells.append(("passive", (version, workload, paper, False, True)))
    elif key == "table6":
        for workload in WORKLOADS:
            cells.append(("passive", ("v3", workload, paper, False, True)))
            cells.append(("active", (workload, paper, True)))
    elif key == "table8":
        for workload in WORKLOADS:
            for nominal in (10 * MB, 100 * MB, 1024 * MB):
                cells.append(("active", (workload, nominal, True)))
    elif key == "figures2-3":
        for workload in WORKLOADS:
            cells.append(("active", (workload, stream, True)))
            for version in ("v3", "v2", "v1"):
                cells.append(("passive", (version, workload, stream, False, True)))
    elif key == "ablations":
        for workload in WORKLOADS:
            cells.append(("passive", ("v3", workload, paper, False, True)))
            cells.append(("passive", ("v3", workload, paper, False, False)))
            cells.append(("active", (workload, paper, True)))
            cells.append(("passive", ("v1", workload, paper, False, True)))
            cells.append(("passive", ("v1", workload, paper, True, True)))
    elif key == "smp-validation":
        for workload in WORKLOADS:
            cells.append(("active", (workload, stream, True)))
            cells.append(("passive", ("v3", workload, stream, False, True)))
            cells.append(("passive", ("v1", workload, stream, False, True)))
    elif key == "sensitivity":
        for workload in WORKLOADS:
            cells.append(("standalone", ("v3", workload, paper)))
            cells.append(("standalone", ("v0", workload, paper)))
            for version in VERSIONS:
                cells.append(("passive", (version, workload, paper, False, True)))
            cells.append(("active", (workload, paper, True)))
    elif key == "sharding":
        cells.append(("active", ("debit-credit", None, True)))
    # figure1 / recovery build their own clusters and read no cells;
    # quorum's runs are pure discrete-event simulations of the seed.
    return cells


#: Experiments that never call ``ctx.estimator()``.
_NO_CALIBRATION = frozenset({"figure1", "recovery", "quorum"})


def plan_for(experiment_keys: Iterable[str]) -> List[CellSpec]:
    """Deduplicated cell plan for the selected experiments, in a
    deterministic order (calibration anchors first, since every
    estimator call needs them)."""
    keys = list(experiment_keys)
    plan: List[CellSpec] = []
    if any(key not in _NO_CALIBRATION for key in keys):
        plan.extend(CALIBRATION_CELLS)
    for key in keys:
        plan.extend(_experiment_cells(key))
    seen = set()
    deduped = []
    for spec in plan:
        if spec not in seen:
            seen.add(spec)
            deduped.append(spec)
    return deduped


def cache_key(spec: CellSpec) -> Tuple:
    """The context-cache key this spec's result lands under."""
    kind, args = spec
    return (kind,) + tuple(args)


def compute_cell(task: Tuple[ExperimentSettings, CellSpec]):
    """Pool worker: measure one cell in a fresh context.

    Returns ``(cache_key, RunResult)`` — both picklable, and identical
    to what the main process would compute (fresh system, fresh seeded
    workload, same settings).
    """
    settings, spec = task
    ctx = ExperimentContext(settings)
    kind, args = spec
    method = {
        "standalone": ctx.standalone_result,
        "passive": ctx.passive_result,
        "active": ctx.active_result,
    }[kind]
    return cache_key(spec), method(*args)


def smp_sim_tasks(ctx: ExperimentContext) -> List[tuple]:
    """The SMP discrete-event points as ``(memo key, RunResult,
    cpu_us, processors)`` — what ``extension_smp_sim.run`` simulates,
    enumerated for the performance ledger."""
    estimator = ctx.estimator()
    tasks = []
    for workload in WORKLOADS:
        for config in _SMP_CONFIGS:
            if config == "active":
                result = ctx.active_result(workload, STREAM_DB_BYTES)
                report = estimator.active(result)
            else:
                version = config.split("-")[1]
                result = ctx.passive_result(version, workload, STREAM_DB_BYTES)
                report = estimator.passive(result)
            for processors in _SMP_PROCESSORS:
                key = ("smp-sim", workload, config, processors, _SMP_DURATION_US)
                tasks.append((key, result, report.cpu_us, processors))
    return tasks


def compute_cell_observed(task: Tuple[ExperimentSettings, CellSpec]):
    """Pool worker for observed runs: ``compute_cell`` plus the cell's
    own metrics snapshot.

    A pool process computes many cells back to back against one
    process-global default observer, so each cell starts by resetting
    it — otherwise a cell's snapshot would also contain every earlier
    cell's counts and the runner's merge would double-count them.
    Returns ``(cache_key, RunResult, snapshot)``; the snapshot is None
    when observation is off.
    """
    from repro.obs.observer import get_default_observer, reset_default_observer

    reset_default_observer()
    key, result = compute_cell(task)
    observer = get_default_observer()
    return key, result, observer.registry.snapshot() if observer.enabled else None
