"""The SMP closed-form-vs-simulation validation experiment."""

import pytest

from repro.experiments import extension_smp_sim
from repro.experiments.common import ExperimentContext, ExperimentSettings

MB = 1024 * 1024


def _run(ctx):
    return extension_smp_sim.run(
        ctx, configs=("active", "passive-v3"), duration_us=6_000.0
    )


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        ExperimentSettings(transactions=300, warmup=30,
                           allocated_db_bytes=4 * MB)
    )


@pytest.fixture(scope="module")
def result(ctx):
    return _run(ctx)


def test_validation_passes(result):
    result.check()


def test_caps_agree_closely(result):
    """At 4 CPUs (saturated or linear), closed form and simulation
    agree tightly — the validation's main claim."""
    for workload, configs in result.curves.items():
        for config, points in configs.items():
            analytic, simulated = points[-1]
            assert simulated == pytest.approx(analytic, rel=0.12), (
                workload, config, analytic, simulated,
            )


def test_renders(result):
    text = result.table().render()
    assert "simulated" in text
    assert "passive-v3" in text


def test_matches_the_polling_original(ctx, result, monkeypatch):
    """The experiment's curves are exactly what the polling oracle
    produces from the same settings."""
    from tests.oracles import smp_sim_reference

    monkeypatch.setattr(extension_smp_sim, "simulate_from_run",
                        smp_sim_reference.simulate_from_run)
    assert _run(ExperimentContext(ctx.settings)).curves == result.curves
