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

A cell spec *is* its context-cache key — what drives the run, kind
first: ``("standalone", version, workload)``, ``("passive", version,
workload, ship_undo_log, coalescing)``, ``("active", workload,
coalescing)``. The database size an experiment reads a cell at is not
part of it (the context applies that on read), so the full grid's 35
reads are 22 cells. The ``smp-validation`` extension's discrete-event
points are not fanned out: all 24 cost about a second, so it computes
them inline from the preloaded cells.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.experiments.common import ExperimentContext, ExperimentSettings

WORKLOADS = ("debit-credit", "order-entry")
VERSIONS = ("v0", "v1", "v2", "v3")

#: A cell spec: the context-cache key of one driven run.
CellSpec = Tuple

#: Anchors for :meth:`ExperimentContext.calibration`.
CALIBRATION_CELLS: List[CellSpec] = [
    ("standalone", "v3", workload) for workload in WORKLOADS
]


def _passive(version: str, workload: str, ship_undo_log: bool = False,
             coalescing: bool = True) -> CellSpec:
    return ("passive", version, workload, ship_undo_log, coalescing)


def _active(workload: str) -> CellSpec:
    return ("active", workload, True)


#: The driven runs each experiment reads, per workload. figure1 and
#: recovery build their own clusters and read no cells; quorum's runs
#: are pure discrete-event simulations of the seed.
_READS = {
    "table1": lambda w: [("standalone", "v0", w), _passive("v0", w)],
    "table3": lambda w: [("standalone", v, w) for v in VERSIONS],
    "table4": lambda w: [_passive(v, w) for v in VERSIONS],
    "table6": lambda w: [_passive("v3", w), _active(w)],
    "table8": lambda w: [_active(w)],
    "figures2-3": lambda w: [_active(w)]
    + [_passive(v, w) for v in ("v3", "v2", "v1")],
    "ablations": lambda w: [
        _passive("v3", w),
        _passive("v3", w, coalescing=False),
        _active(w),
        _passive("v1", w),
        _passive("v1", w, ship_undo_log=True),
    ],
    "smp-validation": lambda w: [_active(w), _passive("v3", w), _passive("v1", w)],
    "sensitivity": lambda w: [("standalone", "v3", w), ("standalone", "v0", w)]
    + [_passive(v, w) for v in VERSIONS] + [_active(w)],
    "sharding": lambda w: [_active(w)] if w == "debit-credit" else [],
}


def plan_for(experiment_keys: Iterable[str]) -> List[CellSpec]:
    """Deduplicated cell plan for the selected experiments, in a
    deterministic order (calibration anchors first: an experiment that
    reads any cell prices it through ``ctx.estimator()``)."""
    plan = [
        cell
        for key in experiment_keys if key in _READS
        for workload in WORKLOADS
        for cell in _READS[key](workload)
    ]
    if plan:
        plan = CALIBRATION_CELLS + plan
    return list(dict.fromkeys(plan))  # first occurrence wins


def compute_cell(task: Tuple[ExperimentSettings, CellSpec]):
    """Pool worker: measure one cell in a fresh context.

    Returns ``(spec, RunResult, snapshot)`` — picklable, the result
    identical to what the main process would compute (fresh system,
    fresh seeded workload, same settings). ``snapshot`` is the cell's
    own metrics, None when observation is off: a pool process computes
    many cells against one process-global default observer, so each
    cell resets it first — or its snapshot would repeat every earlier
    cell's counts and the runner's merge would double-count them.
    """
    from repro.obs.observer import get_default_observer, reset_default_observer

    settings, spec = task
    reset_default_observer()
    result = ExperimentContext(settings).driven(spec)
    observer = get_default_observer()
    return spec, result, observer.registry.snapshot() if observer.enabled else None


def smp_sim_tasks(ctx: ExperimentContext) -> List[tuple]:
    """The SMP discrete-event points as ``(memo key, RunResult,
    cpu_us, processors)`` — what ``extension_smp_sim.run`` simulates,
    enumerated for the performance ledger."""
    from repro.experiments import extension_smp_sim

    return [
        (key, result, report.cpu_us, processors)
        for key, result, report, processors in extension_smp_sim.points(ctx)
    ]
