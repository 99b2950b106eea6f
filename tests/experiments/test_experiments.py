"""The experiment reproductions: every table/figure runs, passes its
own shape checks, and renders. Uses a shared low-fidelity context so
the whole module stays fast; the benchmarks run the full-fidelity
versions."""

import inspect

import pytest

from repro.experiments import (
    ablations,
    figure1,
    figures2_3,
    table1_2,
    table3,
    table4_5,
    table6_7,
    table8,
)
from repro.errors import ConfigurationError
from repro.experiments.common import (
    ExperimentContext,
    ExperimentSettings,
    scale_to_paper_mb,
    standalone_cell,
)

MB = 1024 * 1024


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        ExperimentSettings(
            transactions=400, warmup=50, allocated_db_bytes=4 * MB
        )
    )


def test_figure1_checks_and_renders():
    result = figure1.run()
    result.check()
    assert "Figure 1" in result.table().render()


def test_table1_2(ctx):
    result = table1_2.run(ctx)
    result.check()
    assert "5" in result.table1().render()
    assert "Meta-data" in result.table2().render()


def test_table3(ctx):
    result = table3.run(ctx)
    result.check()
    rendered = result.table().render()
    assert "Version 3 (Improved Log)" in rendered


def test_table4_5(ctx):
    result = table4_5.run(ctx)
    result.check()
    assert "Version 1" in result.table4().render()
    assert "debit-credit v0" in result.table5().render()


def test_table6_7(ctx):
    result = table6_7.run(ctx)
    result.check()
    assert "Active" in result.table6().render()
    assert "active" in result.table7().render()


def test_table8(ctx):
    result = table8.run(ctx)
    result.check()
    assert "1 GB" in result.table().render()


def test_figures2_3(ctx):
    result = figures2_3.run(ctx)
    result.check()
    assert "Pass. Ver. 3" in result.figure2()
    assert "Figure 3" in result.figure3()


def test_ablations(ctx):
    result = ablations.run(ctx)
    result.check()
    assert "active-2safe" in result.table().render()


def test_calibration_anchors_v3_standalone(ctx):
    from repro.experiments.common import PAPER_DB_BYTES
    from repro.perf.calibration import PAPER

    for workload in ("debit-credit", "order-entry"):
        tps = ctx.report(standalone_cell("v3", workload), PAPER_DB_BYTES).tps
        assert tps == pytest.approx(
            PAPER["standalone"][workload]["v3"], rel=1e-6
        )


def test_context_caches_runs(ctx):
    first = ctx.read(standalone_cell("v1", "debit-credit"), 50 * MB)
    second = ctx.read(standalone_cell("v1", "debit-credit"), 50 * MB)
    # Each read is a view; the driven run behind both is one object.
    assert first == second
    assert first.counters is second.counters
    assert first.counters is ctx.driven(("standalone", "v1", "debit-credit")).counters


def test_scale_to_paper_mb():
    # 28.3 bytes/txn over the paper's ~4.98M Debit-Credit transactions
    # is the paper's 140.8 MB of modified data.
    assert scale_to_paper_mb(28.3, "debit-credit") == pytest.approx(134.5, rel=0.02)


def test_every_renderer_in_the_runners_table_exists():
    """A row's names are looked up on the result only when it prints;
    a typo should fail here, not at the end of a grid."""
    from repro.experiments.runner import EXPERIMENT_TABLE, EXPERIMENTS

    assert list(EXPERIMENTS) == list(EXPERIMENT_TABLE)
    for key, (module, renderers) in EXPERIMENT_TABLE.items():
        result_class = inspect.signature(module.run).return_annotation
        result_class = getattr(module, result_class)
        for name in renderers:
            assert callable(getattr(result_class, name, None)), (key, name)


def test_runner_cli_subset():
    from repro.experiments.runner import main

    assert main(["figure1"]) == 0


def test_runner_rejects_unknown_experiment():
    from repro.experiments.runner import main

    with pytest.raises(SystemExit):
        main(["tableX"])


@pytest.mark.parametrize("flag", ["--transactions", "--jobs"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_runner_rejects_a_count_below_one_naming_the_flag(flag, value, capsys):
    from repro.experiments.runner import main

    with pytest.raises(SystemExit) as exit_info:
        main([flag, value, "table3"])
    assert exit_info.value.code == 2
    assert f"{flag} must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"transactions": 0}, {"transactions": -5}, {"warmup": -1},
])
def test_settings_reject_a_run_that_measures_nothing(bad):
    with pytest.raises(ConfigurationError, match="transactions >= 1"):
        ExperimentSettings(**bad)
    ExperimentSettings(transactions=1, warmup=0)  # the smallest valid run
