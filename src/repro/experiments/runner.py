"""Run every experiment and print the paper's tables and figures.

Installed as the ``repro-experiments`` console script::

    repro-experiments                # everything
    repro-experiments table4 fig2   # a subset
    repro-experiments --transactions 5000   # higher fidelity
    repro-experiments --jobs 4      # fan cells over 4 processes

``--jobs N`` computes the independent measurement cells in worker
processes, then renders every table in-process from the preloaded
cache — the printed output is byte-identical at any job count.

Profiling is the performance ledger's job (``python3
benchmarks/ledger/run.py --workload grid-1000 --trace 1`` for the
per-layer and per-experiment wall-clock shares); for a per-function
view use the stdlib directly: ``python -m cProfile -s tottime -m
repro.experiments.runner table4``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List

from repro.experiments import (
    ablations,
    extension_quorum,
    extension_recovery,
    extension_sensitivity,
    extension_sharding,
    extension_smp_sim,
    figure1,
    figures2_3,
)
from repro.experiments import table1_2, table3, table4_5, table6_7, table8
from repro.experiments.common import ExperimentContext, ExperimentSettings


def _run_figure1(_ctx: ExperimentContext) -> List[str]:
    result = figure1.run()
    result.check()
    return [result.table().render()]


def _run_table1_2(ctx: ExperimentContext) -> List[str]:
    result = table1_2.run(ctx)
    result.check()
    return [result.table1().render(), result.table2().render()]


def _run_table3(ctx: ExperimentContext) -> List[str]:
    result = table3.run(ctx)
    result.check()
    return [result.table().render()]


def _run_table4_5(ctx: ExperimentContext) -> List[str]:
    result = table4_5.run(ctx)
    result.check()
    return [result.table4().render(), result.table5().render()]


def _run_table6_7(ctx: ExperimentContext) -> List[str]:
    result = table6_7.run(ctx)
    result.check()
    return [result.table6().render(), result.table7().render()]


def _run_table8(ctx: ExperimentContext) -> List[str]:
    result = table8.run(ctx)
    result.check()
    return [result.table().render()]


def _run_figures2_3(ctx: ExperimentContext) -> List[str]:
    result = figures2_3.run(ctx)
    result.check()
    return [result.figure("debit-credit"), result.figure("order-entry")]


def _run_ablations(ctx: ExperimentContext) -> List[str]:
    result = ablations.run(ctx)
    result.check()
    return [result.table().render()]


def _run_recovery(_ctx: ExperimentContext) -> List[str]:
    result = extension_recovery.run()
    result.check()
    return [result.table().render()]


def _run_smp_validation(ctx: ExperimentContext) -> List[str]:
    result = extension_smp_sim.run(ctx)
    result.check()
    return [result.table().render()]


def _run_sensitivity(ctx: ExperimentContext) -> List[str]:
    result = extension_sensitivity.run(ctx)
    result.check()
    return [result.table().render()]


def _run_sharding(ctx: ExperimentContext) -> List[str]:
    result = extension_sharding.run(ctx)
    result.check()
    return [result.table().render(), result.timeline_figure()]


def _run_quorum(ctx: ExperimentContext) -> List[str]:
    result = extension_quorum.run(ctx)
    result.check()
    return [result.table().render(), result.timeline_figure()]


EXPERIMENTS: Dict[str, Callable[[ExperimentContext], List[str]]] = {
    "figure1": _run_figure1,
    "table1": _run_table1_2,
    "table3": _run_table3,
    "table4": _run_table4_5,
    "table6": _run_table6_7,
    "table8": _run_table8,
    "figures2-3": _run_figures2_3,
    "ablations": _run_ablations,
    "recovery": _run_recovery,
    "smp-validation": _run_smp_validation,
    "sensitivity": _run_sensitivity,
    "sharding": _run_sharding,
    "quorum": _run_quorum,
}

ALIASES = {
    "table2": "table1", "table5": "table4", "table7": "table6",
    "fig1": "figure1", "fig2": "figures2-3", "fig3": "figures2-3",
    "figure2": "figures2-3", "figure3": "figures2-3",
}


def _precompute(ctx: ExperimentContext, resolved: List[str], jobs: int) -> None:
    """Fan the selected experiments' measurement cells over ``jobs``
    worker processes, then seed the context cache. Rendering afterwards
    only reads the cache (falling back to inline computation for any
    cell the plan missed, and for the SMP discrete-event points), so
    the printed tables are byte-identical to a sequential run."""
    from repro.experiments import cells
    from repro.fastpath.parallel import run_tasks
    from repro.obs.observer import get_default_observer

    computed = run_tasks(
        cells.compute_cell,
        [(ctx.settings, spec) for spec in cells.plan_for(resolved)], jobs,
    )
    ctx.preload({spec: result for spec, result, _ in computed})
    # Observed run: the workers' per-cell metrics snapshots merge here
    # in task order (run_tasks preserves it), so the aggregate registry
    # is deterministic at any -j.
    observer = get_default_observer()
    for _spec, _result, snapshot in computed:
        if snapshot is not None:
            observer.registry.merge_snapshot(snapshot)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Reproduce the tables and figures of Amza et al., "
        "DSN 2000."
    )
    parser.add_argument(
        "experiments", nargs="*",
        help=f"subset to run (default all): {sorted(EXPERIMENTS)}",
    )
    parser.add_argument(
        "--transactions", type=int, default=1500,
        help="measured transactions per configuration (default 1500)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="workload RNG seed"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="compute measurement cells across N worker processes "
        "(output stays byte-identical; default 1 = sequential)",
    )
    args = parser.parse_args(argv)
    for flag in ("transactions", "jobs"):
        if getattr(args, flag) < 1:
            parser.error(f"--{flag} must be at least 1, got {getattr(args, flag)}")

    names = args.experiments or list(EXPERIMENTS)
    resolved = []
    for name in names:
        key = ALIASES.get(name, name)
        if key not in EXPERIMENTS:
            parser.error(
                f"unknown experiment {name!r}; choose from "
                f"{sorted(set(EXPERIMENTS) | set(ALIASES))}"
            )
        if key not in resolved:
            resolved.append(key)

    settings = ExperimentSettings(
        transactions=args.transactions, seed=args.seed
    )
    ctx = ExperimentContext(settings)

    started = time.time()
    if args.jobs > 1:
        _precompute(ctx, resolved, args.jobs)
    for key in resolved:
        for block in EXPERIMENTS[key](ctx):
            print(block)
            print()
    print(f"[all experiments passed their shape checks in "
          f"{time.time() - started:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
