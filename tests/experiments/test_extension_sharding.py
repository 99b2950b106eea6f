"""The sharding extension experiment at test fidelity."""

import pytest

from repro.experiments import extension_sharding
from repro.experiments.common import ExperimentContext, ExperimentSettings
from repro.fastpath import shardpar
from repro.obs.audit import audit_events
from repro.obs.critpath import decompose_recoveries

MB = 1024 * 1024


def small_ctx():
    return ExperimentContext(
        ExperimentSettings(transactions=250, warmup=50,
                           allocated_db_bytes=4 * MB)
    )


def test_runs_checks_and_renders():
    result = extension_sharding.run(small_ctx())
    result.check()
    table = result.table().render()
    assert "dedicated links" in table
    assert "one shared SAN" in table
    figure = result.timeline_figure()
    assert "<- crash" in figure
    assert "<- restored" in figure


@pytest.mark.parametrize("plan_args", [
    {"slots": 40}, {"num_shards": 8}, {"offered_per_shard": 3},
], ids=lambda args: "-".join(f"{k}={v}" for k, v in args.items()))
def test_timeline_check_follows_the_run(plan_args):
    # The check once compared per-shard completions against the module
    # constant SLOTS, failing a correct slots=40 run.
    timeline = extension_sharding.failover_timeline(**plan_args)
    extension_sharding.check_failover_timeline(timeline)


def test_dip_is_one_nth_not_zero():
    timeline = extension_sharding.failover_timeline(seed=42)
    outage = timeline.outage_slots()
    assert outage, "expected an observable outage window"
    for sample in outage:
        assert sample.completed == timeline.degraded_per_slot
        assert 0 < sample.completed < timeline.normal_per_slot
    assert timeline.recovered_slots()


def test_timeline_is_deterministic_under_the_seed():
    first = extension_sharding.failover_timeline(seed=42)
    second = extension_sharding.failover_timeline(seed=42)
    assert first.samples == second.samples
    assert first.router_stats == second.router_stats
    assert first.outage == second.outage


def test_default_timeline_recovery_decomposition_is_pinned():
    # Simulated time, deterministic under the seed: exact, not a ratio.
    timeline = extension_sharding.failover_timeline()
    decomposition = decompose_recoveries(timeline.trace_events)
    scope = decomposition.scope(timeline.downed_scope)
    exact = pytest.approx(14531.013333333336, rel=1e-12)
    assert scope.total_downtime_us == exact
    assert scope.phase_totals == {
        "detect": 550.0,
        "catchup": pytest.approx(13981.013333333336, rel=1e-12),
    }
    assert round(scope.share("catchup"), 4) == 0.9621
    assert decomposition.trees[0].resume_gap_us == pytest.approx(
        218.98666666666395, rel=1e-12
    )
    fired = [e for e in timeline.trace_events if e.name == "alert.fire"]
    assert len(fired) == 2


def test_scaling_is_near_linear_on_dedicated_links():
    ctx = small_ctx()
    result = extension_sharding.run(ctx)
    by_shards = {r.shards: r for r in result.scaling}
    assert by_shards[4].dedicated_tps >= 3.6 * by_shards[1].dedicated_tps
    assert by_shards[8].shared_san_tps <= by_shards[8].dedicated_tps


def test_multi_crash_plan_audits_clean():
    """Two crashes on distinct shards of an 8-pair cluster, staggered
    so the second failover lands while the first shard is already
    serving again: both takeovers complete and the full invariant rule
    set holds on the trace."""
    plan = extension_sharding.failover_plan(
        num_shards=8, crashes=((2, 5_250.0), (5, 13_250.0)))
    outcome = shardpar.execute(plan)
    report = audit_events(outcome.events)
    assert report.ok, report.render()
    assert sorted(outcome.takeover_downtime_us) == [2, 5]
    assert outcome.routed == outcome.completed and not outcome.dropped
    names = [event.name for event in outcome.events]
    assert names.count("fault.crash") == 2
    assert names.count("takeover") == 2


def test_driving_the_same_plan_twice_is_byte_identical():
    plan = extension_sharding.failover_plan(
        num_shards=3, slots=12, crashes=((1, 3_250.0),))
    first, second = shardpar.execute(plan), shardpar.execute(plan)
    assert first.events == second.events
    assert first.frame.to_bytes() == second.frame.to_bytes()
    assert len(first.frame) > 0 and first.takeover_downtime_us


def test_execute_runs_on_one_simulator_only():
    plan = extension_sharding.failover_plan()
    with pytest.raises(ValueError, match="jobs=2"):
        shardpar.execute(plan, jobs=2)
