"""Cell plans for the process-parallel experiment runner.

The experiments share one :class:`~repro.experiments.common.
ExperimentContext` cache, and every cache entry — a *cell* — is a pure
function of the :class:`ExperimentSettings` (each cell builds a fresh
system and a fresh seeded workload). That makes cells safe to compute
in worker processes: the runner fans the plan over a pool, installs
the returned ``RunResult`` objects via ``ctx.preload()``, and renders
the experiments sequentially in-process, so the output is byte for
byte what a sequential run prints, at any ``--jobs`` value.

The plan is derived, not restated: it is the union of the selected
experiment modules' own ``reads`` — the mapping each ``run()`` iterates
— so a cell an experiment reads cannot be missing from it.

A cell spec *is* its context-cache key — what drives the run
(:class:`ExperimentContext` spells the three shapes out). The database
size an experiment reads a cell at is not part of it (the context
applies that on read), so the full grid's 35 reads are 22 cells. The
``smp-validation`` extension's discrete-event points are not fanned
out: all 24 cost about a second, so it computes them inline from the
preloaded cells.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.experiments.common import (
    WORKLOADS,
    CellSpec,
    ExperimentContext,
    ExperimentSettings,
    standalone_cell,
)

#: Anchors for :meth:`ExperimentContext.calibration`.
CALIBRATION_CELLS: List[CellSpec] = [
    standalone_cell("v3", workload) for workload in WORKLOADS
]


def plan_for(experiment_keys: Iterable[str]) -> List[CellSpec]:
    """Deduplicated cell plan for the selected experiments, in a
    deterministic order (calibration anchors first: an experiment that
    reads any cell prices it through ``ctx.estimator()``). A module
    without ``reads`` (figure1, recovery, quorum) builds its own
    systems and reads no cells."""
    from repro.experiments.runner import EXPERIMENT_TABLE

    modules = [EXPERIMENT_TABLE[key][0] for key in experiment_keys]
    plan = [
        read[0]
        for module in modules if hasattr(module, "reads")
        for workload in WORKLOADS
        for read in module.reads(workload).values()
    ]
    if plan:
        plan = CALIBRATION_CELLS + plan
    return list(dict.fromkeys(plan))  # first occurrence wins


def compute_cell(task: Tuple[ExperimentSettings, CellSpec]):
    """Pool worker: measure one cell in a fresh context.

    Returns ``(spec, RunResult)`` — picklable, the result identical to
    what the main process would compute (fresh system, fresh seeded
    workload, same settings).
    """
    settings, spec = task
    return spec, ExperimentContext(settings).driven(spec)


def smp_sim_tasks(ctx: ExperimentContext) -> List[tuple]:
    """The SMP discrete-event points as ``(memo key, RunResult,
    cpu_us, processors)`` — what ``extension_smp_sim.run`` simulates,
    enumerated for the performance ledger."""
    from repro.experiments import extension_smp_sim

    return [
        (key, result, report.cpu_us, processors)
        for key, result, report, processors in extension_smp_sim.points(ctx)
    ]
