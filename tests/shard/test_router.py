"""Router behavior: placement, redirects, retries, drops."""

import random

import pytest

from repro.errors import RoutingError
from repro.shard import Router, ShardedCluster, ShardedWorkload
from repro.shard.router import MAX_BACKOFF_US
from repro.vista import EngineConfig

MB = 1024 * 1024
CONFIG = EngineConfig(db_bytes=4 * MB, log_bytes=512 * 1024)


def make(num_shards=4, mode="active", version="v3", seed=13, **router_kwargs):
    cluster = ShardedCluster(
        num_shards, mode=mode, version=version, config=CONFIG,
        heartbeat_interval_us=100.0, heartbeat_timeout_us=500.0,
    )
    workload = ShardedWorkload(
        "debit-credit", num_shards, CONFIG.db_bytes, seed=seed
    )
    cluster.setup(workload)
    return cluster, workload, Router(cluster, workload, **router_kwargs)


def test_healthy_routing_completes_everything_immediately():
    cluster, workload, router = make()
    keys = random.Random(13)
    for _ in range(40):
        router.submit(
            key=keys.randrange(workload.partitioner.total_keys), at_us=0.0)
    cluster.run_until(1_000.0)
    assert router.routed == router.completed == 40
    assert router.retries == router.redirects == router.dropped == 0
    assert all(t.completed_at_us == t.submitted_at_us
               for t in router.transactions)
    # Keys actually spread over the shards.
    touched = {t.shard_id for t in router.transactions}
    assert len(touched) > 1
    for shard_id in touched:
        workload.verify_shard(shard_id, cluster.serving(shard_id))


def test_submissions_route_by_partition_key():
    _cluster, workload, router = make(num_shards=3)
    for shard_id in range(3):
        key = workload.partitioner.ranges[shard_id].start
        record = router.submit(key=key, at_us=0.0)
        assert record.shard_id == shard_id


def test_failover_submissions_retry_until_service_returns():
    # Passive v1: the whole-database mirror restore keeps the shard
    # down for milliseconds, so retries must ride out a real window.
    cluster, workload, router = make(num_shards=2, mode="passive",
                                     version="v1")
    cluster.crash(0, 0, at_us=1_000.0)
    key = workload.partitioner.ranges[0].start
    victim = router.submit(key=key, at_us=2_000.0)  # mid-outage
    bystander = router.submit(
        key=workload.partitioner.ranges[1].start, at_us=2_000.0
    )
    cluster.run_until(60_000.0)

    report = cluster.takeovers[0]
    assert victim.completed_at_us is not None
    assert victim.completed_at_us >= report.service_restored_at_us
    assert victim.attempts > 1
    assert router.retries > 0
    # The healthy shard's transaction never waited.
    assert bystander.completed_at_us == 2_000.0
    workload.verify_shard(0, cluster.serving(0))


def test_stale_snapshot_redirects_once_then_serves():
    cluster, workload, router = make(num_shards=2)
    cluster.crash(1, 0, at_us=1_000.0)
    cluster.run_until(10_000.0)  # failover done; router's map is stale
    record = router.submit(key=workload.partitioner.ranges[1].start,
                           at_us=10_000.0)
    cluster.run_until(10_001.0)
    assert record.completed_at_us is not None
    assert router.redirects == 1
    assert router.map.entry(1).epoch == 1  # snapshot was refreshed


def test_attempt_budget_exhaustion_drops_the_transaction():
    cluster, workload, router = make(num_shards=2, mode="passive",
                                     version="v1", max_attempts=1)
    cluster.crash(0, 0, at_us=1_000.0)
    record = router.submit(
        key=workload.partitioner.ranges[0].start, at_us=2_000.0
    )
    cluster.run_until(60_000.0)
    assert record.dropped
    assert record.completed_at_us is None
    assert router.dropped == 1
    assert router.in_flight == 0


def test_backoff_is_exponential_and_capped():
    cluster, workload, router = make(
        num_shards=2, mode="passive", version="v1", max_attempts=60,
    )
    cluster.crash(0, 0, at_us=1_000.0)
    record = router.submit(
        key=workload.partitioner.ranges[0].start, at_us=2_000.0
    )
    cluster.run_until(60_000.0)
    assert record.completed_at_us is not None
    # Attempts at 2000, +250, +500, +1000, +2000, +4000, +4000... — the
    # cap keeps the worst-case completion delay after restore below
    # MAX_BACKOFF_US.
    report = cluster.takeovers[0]
    assert (record.completed_at_us - report.service_restored_at_us
            <= MAX_BACKOFF_US)


def test_router_validates_its_inputs():
    cluster, workload, _ = make(num_shards=2)
    other = ShardedWorkload("debit-credit", 3, CONFIG.db_bytes)
    with pytest.raises(RoutingError):
        Router(cluster, other)
    with pytest.raises(RoutingError):
        Router(cluster, workload, max_attempts=0)
