"""The calibration-sensitivity extension experiment."""

import pytest

from repro.experiments import extension_sensitivity
from repro.experiments.common import ExperimentContext, ExperimentSettings

MB = 1024 * 1024


@pytest.fixture(scope="module")
def result():
    ctx = ExperimentContext(
        ExperimentSettings(transactions=300, warmup=30,
                           allocated_db_bytes=4 * MB)
    )
    return extension_sensitivity.run(ctx)


def test_all_conclusions_hold_across_the_grid(result):
    result.check()
    assert result.grid_points == 27


def test_renders(result):
    text = result.table().render()
    assert "active beats best passive" in text


def test_failures_are_recorded_not_swallowed(result):
    total_evaluations = result.grid_points * len(extension_sensitivity.CONCLUSIONS)
    total_held = sum(result.held.values())
    assert total_held + len(result.failures) == total_evaluations
