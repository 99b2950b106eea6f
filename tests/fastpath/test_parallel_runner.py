"""The process-parallel experiment runner: determinism and coverage.

``--jobs N`` must print byte-for-byte what the sequential runner
prints (only the final timing line may differ), because the pool only
computes cache cells — rendering stays sequential and in-process.
"""

import pytest

from repro.experiments import cells, common, extension_smp_sim, runner
from repro.experiments.common import ExperimentContext, ExperimentSettings
from repro.fastpath.parallel import run_tasks


def _run_main(capsys, argv):
    assert runner.main(argv) == 0
    out = capsys.readouterr().out
    # Drop the wall-clock line; everything above it must match exactly.
    lines = out.splitlines()
    assert lines[-1].startswith("[all experiments passed")
    return "\n".join(lines[:-1])


def test_jobs_output_is_byte_identical(capsys):
    base = ["table6", "--transactions", "80", "--seed", "11"]
    sequential = _run_main(capsys, base)
    parallel = _run_main(capsys, base + ["--jobs", "2"])
    assert parallel == sequential


def test_run_tasks_preserves_task_order():
    tasks = list(range(7))
    assert run_tasks(_square, tasks, jobs=2) == [n * n for n in tasks]
    assert run_tasks(_square, tasks, jobs=1) == [n * n for n in tasks]


def _square(n):
    return n * n


@pytest.fixture(scope="module")
def grid():
    """One sequential full grid on one context, recording the cells
    each experiment reads and every ``run_workload`` call. What is
    watched is which runs get driven, so the 24 SMP points are cut to
    a tenth of their simulated duration."""
    ctx = ExperimentContext(ExperimentSettings(
        transactions=40, warmup=10, allocated_db_bytes=4 << 20))
    reads, runs = {}, []
    driven, run_workload = ctx.driven, common.run_workload
    simulate = extension_smp_sim.simulate_from_run

    def counting(*args, **kwargs):
        runs.append(args)
        return run_workload(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(common, "run_workload", counting)
        patch.setattr(
            extension_smp_sim, "simulate_from_run",
            lambda result, duration_us, **kwargs: simulate(
                result, duration_us=duration_us / 10, **kwargs),
        )
        for key, experiment in runner.EXPERIMENTS.items():
            seen = reads[key] = []
            patch.setattr(
                ctx, "driven",
                lambda cell, seen=seen: seen.append(cell) or driven(cell),
            )
            experiment(ctx)
    return reads, runs


@pytest.mark.parametrize("key", list(runner.EXPERIMENTS))
def test_plan_covers_every_cell_an_experiment_reads(grid, key):
    """The plan is the module's own ``reads``, which its ``run()``
    iterates: nothing is computed inline after a preload and nothing
    is fanned out unread. (The calibration anchors are driven by
    whichever experiment first asks for the estimator.)"""
    reads, _ = grid
    anchors = set(cells.CALIBRATION_CELLS)
    assert set(cells.plan_for([key])) - anchors == set(reads[key]) - anchors


def test_the_full_grid_is_22_driven_runs(grid):
    reads, runs = grid
    plan = cells.plan_for(list(runner.EXPERIMENTS))
    assert len(plan) == 22 == len(runs)
    assert set(plan) == {cell for seen in reads.values() for cell in seen}


def test_plan_for_dedupes_and_orders_anchors_first():
    plan = cells.plan_for(["table3", "table4", "sensitivity"])
    assert len(plan) == len(set(plan))
    assert plan[0] in cells.CALIBRATION_CELLS
    assert plan[1] in cells.CALIBRATION_CELLS
    # figure1/recovery alone need no cells at all.
    assert cells.plan_for(["figure1", "recovery"]) == []
