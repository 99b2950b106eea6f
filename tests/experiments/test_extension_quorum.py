"""The quorum extension experiment at test fidelity."""

from repro.experiments import extension_quorum
from repro.experiments.common import ExperimentContext, ExperimentSettings
from repro.obs.critpath import crosscheck_recovery_slo

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
    assert first.quorum_loss == second.quorum_loss


def test_trace_audits_clean_including_quorum_rules():
    timeline = extension_quorum.quorum_timeline(seed=42)
    report = timeline.audit()
    assert report.ok
    names = {event.name for event in timeline.trace_events}
    assert "quorum.read" in names and "quorum.write" in names
    assert "fault.partition" in names and "fault.heal" in names


def test_default_timeline_recovery_decomposition_is_pinned():
    # Simulated time, deterministic under the seed: exact, not a ratio.
    timeline = extension_quorum.quorum_timeline()
    decomposition = crosscheck_recovery_slo(
        timeline.trace_events, timeline.slo()
    )
    scope = decomposition.scope(f"group.{timeline.downed_group}")
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
