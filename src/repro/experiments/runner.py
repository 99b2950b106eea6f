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


#: key -> (module, the renderers of its ``run(ctx)`` result, in print
#: order). Adding an experiment is one row here: ``EXPERIMENTS`` and
#: ``benchmarks/test_paper_tables.py`` call the module's ``run`` and
#: these names, ``cells.plan_for`` its ``reads``.
EXPERIMENT_TABLE = {
    "figure1": (figure1, ("table",)),
    "table1": (table1_2, ("table1", "table2")),
    "table3": (table3, ("table",)),
    "table4": (table4_5, ("table4", "table5")),
    "table6": (table6_7, ("table6", "table7")),
    "table8": (table8, ("table",)),
    "figures2-3": (figures2_3, ("figure2", "figure3")),
    "ablations": (ablations, ("table",)),
    "recovery": (extension_recovery, ("table",)),
    "smp-validation": (extension_smp_sim, ("table",)),
    "sensitivity": (extension_sensitivity, ("table",)),
    "sharding": (extension_sharding, ("table", "timeline_figure")),
    "quorum": (extension_quorum, ("table", "timeline_figure")),
}


def check_and_render(result, renderers) -> List[str]:
    """``result`` must pass its own shape checks before a byte of it
    is shown; a renderer returns a ``ReportTable`` or a figure's text."""
    result.check()
    return [str(getattr(result, name)()) for name in renderers]


def _experiment(module, renderers) -> Callable[[ExperimentContext], List[str]]:
    return lambda ctx: check_and_render(module.run(ctx), renderers)


#: Looked up at call time by ``main`` (the ledger wraps its entries).
EXPERIMENTS: Dict[str, Callable[[ExperimentContext], List[str]]] = {
    key: _experiment(*row) for key, row in EXPERIMENT_TABLE.items()
}

ALIASES = {
    "table2": "table1", "table5": "table4", "table7": "table6",
    "fig1": "figure1", "fig2": "figures2-3", "fig3": "figures2-3",
    "figure2": "figures2-3", "figure3": "figures2-3",
}


def _precompute(ctx: ExperimentContext, resolved: List[str], jobs: int) -> None:
    """Fan the selected experiments' measurement cells over ``jobs``
    worker processes, then seed the context cache. Rendering afterwards
    only reads the cache (the plan is the experiments' own ``reads``;
    the SMP discrete-event points are computed inline), so the printed
    tables are byte-identical to a sequential run."""
    from repro.experiments import cells
    from repro.fastpath.parallel import run_tasks

    ctx.preload(dict(run_tasks(
        cells.compute_cell,
        [(ctx.settings, spec) for spec in cells.plan_for(resolved)], jobs,
    )))


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
