"""The quorum extension experiment at test fidelity."""

import pytest

from repro.experiments import extension_quorum
from repro.experiments.common import ExperimentContext, ExperimentSettings
from repro.obs.critpath import decompose_recoveries

MB = 1024 * 1024


def small_ctx():
    return ExperimentContext(
        ExperimentSettings(transactions=250, warmup=50,
                           allocated_db_bytes=4 * MB)
    )


def test_runs_checks_and_renders():
    result = extension_quorum.run(small_ctx())
    result.check()
    table = result.table().render()
    assert "primary-backup pair" in table
    assert "sloppy" in table and "strict" in table
    figure = result.timeline_figure()
    assert "<- quorum lost" in figure
    assert "<- quorum restored" in figure


@pytest.mark.parametrize("args", [{"slots": 40}], ids=["slots=40"])
def test_timeline_check_follows_the_run(args):
    timeline = extension_quorum.quorum_timeline(**args)
    extension_quorum.check_quorum_timeline(timeline)


def test_quorum_loss_dip_is_degraded_not_zero():
    timeline = extension_quorum.quorum_timeline(seed=42)
    outage = timeline.outage_slots()
    assert outage, "expected an observable quorum-loss window"
    for sample in outage:
        assert sample.completed == timeline.degraded_per_slot
        assert 0 < sample.completed < timeline.normal_per_slot
    assert timeline.recovered_slots()
    assert timeline.converged


def test_timeline_is_deterministic_under_the_seed():
    first = extension_quorum.quorum_timeline(seed=42)
    second = extension_quorum.quorum_timeline(seed=42)
    assert first.samples == second.samples
    assert first.router_stats == second.router_stats
    assert first.group_stats == second.group_stats
    assert first.outage == second.outage
    # The driver's determinism, event for event and sample for sample.
    assert first.trace_events == second.trace_events
    assert first.series.to_dict() == second.series.to_dict()


def test_trace_audits_clean_including_quorum_rules():
    timeline = extension_quorum.quorum_timeline(seed=42)
    assert timeline.audit.ok
    names = {event.name for event in timeline.trace_events}
    assert "quorum.read" in names and "quorum.write" in names
    assert "fault.partition" in names and "fault.heal" in names


def test_default_timeline_recovery_decomposition_is_pinned():
    # Simulated time, deterministic under the seed: exact, not a ratio.
    timeline = extension_quorum.quorum_timeline()
    decomposition = decompose_recoveries(timeline.trace_events)
    scope = decomposition.scope(timeline.downed_scope)
    assert scope.total_downtime_us == 4000.0
    assert scope.share("view") == 1.0
    tree = decomposition.trees[0]
    assert tree.resume_gap_us == 0.0
    assert tree.resume_commit_trace_id is not None


def test_sloppy_quorum_beats_the_passive_pair():
    comparison = extension_quorum.availability_comparison(seed=42)
    assert comparison.quorum_availability >= comparison.pair_availability
    assert comparison.quorum_downtime_us == 0.0
    assert comparison.hints_delivered > 0
