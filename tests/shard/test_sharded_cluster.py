"""N pairs on one simulator: independent failover, shared views."""

import pytest

from repro.errors import (
    ConfigurationError, SimulationError, StaleShardMapError,
)
from repro.obs import Observer
from repro.obs.audit import audit_events
from repro.obs.slo import compute_slo
from repro.shard import ShardedCluster, ShardedWorkload
from repro.shard.shardmap import STATUS_DEGRADED, STATUS_UP
from repro.vista import EngineConfig
from tests.obs.select import select_events

MB = 1024 * 1024
CONFIG = EngineConfig(db_bytes=4 * MB, log_bytes=512 * 1024)


def make(num_shards=3, mode="active", version="v3"):
    cluster = ShardedCluster(
        num_shards, mode=mode, version=version, config=CONFIG,
        heartbeat_interval_us=100.0, heartbeat_timeout_us=500.0,
    )
    workload = ShardedWorkload(
        "debit-credit", num_shards, CONFIG.db_bytes, seed=11
    )
    cluster.setup(workload)
    return cluster, workload


def test_pairs_share_one_simulator_and_namespace():
    cluster, _ = make(3)
    assert all(pair.sim is cluster.sim for pair in cluster.pairs)
    names = {pair.primary_node.name for pair in cluster.pairs}
    assert names == {"shard0/primary", "shard1/primary", "shard2/primary"}
    assert len(cluster.membership.members) == 6
    assert len(cluster.shard_map.entries) == 3


def test_single_shard_crash_fails_over_only_that_shard():
    cluster, workload = make(3)
    for shard_id in range(3):
        for _ in range(10):
            workload.run_on_shard(shard_id, cluster.serving(shard_id))
    cluster.crash(1, 0, at_us=2_000.0)
    cluster.run_until(20_000.0)

    assert set(cluster.takeovers) == {1}
    report = cluster.takeovers[1]
    assert report.crash_at_us == 2_000.0
    assert 0 < report.detection_us <= 600.0 + 1e-9

    # Shard 1's entry changed; the others are untouched.
    assert cluster.shard_map.entry(1).primary == "shard1/backup"
    assert cluster.shard_map.entry(1).epoch == 1
    assert cluster.shard_map.entry(1).status == STATUS_DEGRADED
    for other in (0, 2):
        assert cluster.shard_map.entry(other).epoch == 0
        assert cluster.shard_map.entry(other).status == STATUS_UP

    # The cluster-wide view lost exactly the crashed node.
    assert cluster.membership.view_id == 1
    assert "shard1/primary" not in cluster.membership.members
    assert len(cluster.membership.members) == 5

    # Every shard still serves and verifies, including the promoted one.
    for shard_id in range(3):
        workload.run_on_shard(shard_id, cluster.serving(shard_id))
        workload.verify_shard(shard_id, cluster.serving(shard_id))


def test_availability_window_tracks_the_takeover():
    cluster, _ = make(2, mode="passive", version="v1")
    assert cluster.units[0].is_available and cluster.units[1].is_available
    cluster.crash(0, 0, at_us=1_000.0)
    cluster.run_until(1_200.0)  # crashed, not yet detected
    assert not cluster.units[0].is_available
    assert cluster.units[1].is_available
    cluster.run_until(2_000.0)  # detected; mirror restore still running
    report = cluster.takeovers[0]
    assert report.service_restored_at_us > 2_000.0
    assert not cluster.units[0].is_available
    cluster.run_until(report.service_restored_at_us + 1.0)
    assert cluster.units[0].is_available


def test_execute_fences_stale_epochs_then_serves_fresh_ones():
    cluster, workload = make(2)
    stale = cluster.shard_map.snapshot()
    cluster.crash(1, 0, at_us=1_000.0)
    cluster.run_until(10_000.0)

    run = lambda serving: workload.run_on_shard(1, serving)
    with pytest.raises(StaleShardMapError):
        cluster.execute(1, stale.entry(1).epoch, run)
    fresh = cluster.shard_map.snapshot()
    cluster.execute(1, fresh.entry(1).epoch, run)
    workload.verify_shard(1, cluster.serving(1))
    # The unaffected shard accepts the old epoch unchanged.
    cluster.execute(0, stale.entry(0).epoch,
                    lambda serving: workload.run_on_shard(0, serving))


def test_only_debit_credit_shards():
    with pytest.raises(ConfigurationError, match="unknown sharded workload"):
        ShardedWorkload("order-entry", 2, CONFIG.db_bytes)


def test_a_second_crash_of_one_pair_is_refused_when_scheduled():
    # A second crash of shard 0 used to rewrite its one outage: two
    # fault.crash events, a takeover stamped with the second crash, and
    # an SLO charge of both windows (about twice the real downtime)
    # that the auditor passed.
    observer = Observer()
    cluster = ShardedCluster(2, config=CONFIG, observer=observer)
    cluster.crash(0, 0, at_us=10.0)
    with pytest.raises(ConfigurationError):
        cluster.crash(0, 0, at_us=20.0)
    cluster.run_until(20_000.0)

    events = list(observer.recorder.events)
    report = cluster.takeovers[0]
    assert report.crash_at_us == 10.0
    assert report.downtime_us == 5_990.0
    assert len(select_events(events, name="fault.crash")) == 1
    (scope,) = compute_slo(events).scopes
    assert scope.downtime_us == report.downtime_us
    assert audit_events(events).ok


@pytest.mark.parametrize("at_us", [float("nan"), -1.0])
def test_a_refused_crash_time_does_not_use_up_the_pairs_crash(at_us):
    cluster, _ = make(2)
    with pytest.raises(SimulationError):
        cluster.crash(0, 0, at_us)
    cluster.crash(0, 0, 1_000.0)
    cluster.run_until(10_000.0)
    assert cluster.takeovers[0].crash_at_us == 1_000.0


@pytest.mark.parametrize("fault", [
    lambda c: c.crash(0, 1, 1_000.0),  # the backup
    lambda c: c.recover(0, 0, 1_000.0),
    lambda c: c.partition(0, [0], [1], at_us=1_000.0),
], ids=["backup-crash", "recover", "partition"])
def test_a_pair_takes_only_a_crash_of_its_primary(fault):
    cluster, _ = make(2)
    with pytest.raises(ConfigurationError):
        fault(cluster)
    cluster.run_until(10_000.0)
    assert cluster.takeovers == {}


def test_repr_mentions_failures():
    cluster, _ = make(2)
    assert "0 failed over" in repr(cluster)
    cluster.crash(0, 0, at_us=1_000.0)
    cluster.run_until(10_000.0)
    assert "1 failed over" in repr(cluster)
