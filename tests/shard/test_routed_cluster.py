"""The routed-cluster serving contract, over both kinds of cluster.

Everything here is written against
:class:`~repro.shard.cluster.RoutedCluster` and must hold whether the
units are primary-backup pairs or quorum groups.
"""

import pytest

from repro.errors import (
    ConfigurationError,
    ShardUnavailableError,
    StaleShardMapError,
)
from repro.obs import Observer
from repro.quorum import QuorumCluster, QuorumWorkload
from repro.shard import Router, ShardedCluster, ShardedWorkload
from repro.vista import EngineConfig

MB = 1024 * 1024
CONFIG = EngineConfig(db_bytes=4 * MB, log_bytes=512 * 1024)

KINDS = ("shard", "quorum")
#: In both kinds unit 0 goes down at 1 ms, is still down at 2 ms (a
#: passive-v1 mirror restore; a group one member short of quorum) and
#: serves again well before 60 ms. Unit 1 never notices.
DOWN_AT_US = 2_000.0
UP_AT_US = 60_000.0


def build(kind, num_units=2, observer=None):
    if kind == "shard":
        return ShardedCluster(
            num_units, mode="passive", version="v1", config=CONFIG,
            heartbeat_interval_us=100.0, heartbeat_timeout_us=500.0,
            observer=observer,
        )
    return QuorumCluster(
        num_units, replicas_per_group=3, read_quorum=2, write_quorum=2,
        keys_per_group=8, observer=observer,
    )


def workload_for(kind, num_units=2):
    if kind == "shard":
        return ShardedWorkload(
            "debit-credit", num_units, CONFIG.db_bytes, seed=11
        )
    return QuorumWorkload(num_units, 8, seed=11)


def make(kind, observer=None):
    """A two-unit cluster, set up, with unit 0's outage scheduled."""
    cluster, workload = build(kind, observer=observer), workload_for(kind)
    cluster.setup(workload)
    if kind == "shard":
        cluster.schedule_primary_crash(0, at_us=1_000.0)
    else:
        cluster.schedule_member_crash(0, 0, 900.0)
        cluster.schedule_member_crash(0, 1, 1_000.0)
        cluster.schedule_member_recover(0, 1, 3_000.0)
    return cluster, workload


def run_on(workload, shard_id):
    return lambda serving: workload.run_on_shard(shard_id, serving)


@pytest.mark.parametrize("kind", KINDS)
def test_stale_epoch_is_fenced_before_availability(kind):
    cluster, workload = make(kind)
    cluster.run_until(DOWN_AT_US)
    assert not cluster.available(0)
    epoch = cluster.shard_map.entry(0).epoch
    # Down *and* routed with an older epoch: the fence answers first,
    # so the router refreshes its entry instead of burning a retry.
    with pytest.raises(StaleShardMapError):
        cluster.execute(0, epoch - 1, run_on(workload, 0))
    with pytest.raises(ShardUnavailableError):
        cluster.execute(0, epoch, run_on(workload, 0))


@pytest.mark.parametrize("kind", KINDS)
def test_only_the_downed_unit_is_unavailable_and_it_comes_back(kind):
    cluster, workload = make(kind)
    cluster.run_until(DOWN_AT_US)
    assert cluster.available(1)
    cluster.execute(1, cluster.shard_map.entry(1).epoch, run_on(workload, 1))
    cluster.run_until(UP_AT_US)
    assert cluster.available(0)
    cluster.execute(0, cluster.shard_map.entry(0).epoch, run_on(workload, 0))


@pytest.mark.parametrize("kind", KINDS)
def test_configuration_is_validated(kind):
    with pytest.raises(ConfigurationError):
        build(kind, num_units=0)
    cluster, workload = make(kind)
    for unit_id in (-1, 2, 5):
        with pytest.raises(ConfigurationError):
            cluster.execute(unit_id, 0, run_on(workload, 0))
        with pytest.raises(ConfigurationError):
            cluster.available(unit_id)
        with pytest.raises(ConfigurationError):
            cluster.serving(unit_id)
        with pytest.raises(ConfigurationError):
            cluster.pop_resume_link(unit_id)
    with pytest.raises(ConfigurationError):
        cluster.setup(workload_for(kind, num_units=3))


@pytest.mark.parametrize("kind", KINDS)
def test_pop_resume_link_hands_a_link_out_exactly_once(kind):
    cluster, _ = make(kind, observer=Observer())
    assert cluster.pop_resume_link(0) is None  # nothing failed yet
    cluster.run_until(UP_AT_US)
    link = cluster.pop_resume_link(0)
    assert link is not None
    assert cluster.pop_resume_link(0) is None
    assert cluster.pop_resume_link(1) is None  # never went down


@pytest.mark.parametrize("kind", KINDS)
def test_router_stamps_scope_for_quorum_clusters_only(kind):
    observer = Observer()
    cluster, workload = make(kind, observer=observer)
    router = Router(cluster, workload, max_attempts=12, observer=observer)
    keys = (
        [r.start for r in workload.partitioner.ranges]
        if kind == "shard" else [0, 1]
    )
    for slot in range(4):
        for key in keys:
            router.submit(key=key, at_us=slot * 1_000.0)
    cluster.run_until(UP_AT_US)
    completes = observer.recorder.select(name="txn.complete")
    assert len(completes) == router.completed == 8
    for event in completes:
        if kind == "shard":
            # Readers derive "shard.N" from the shard attr; stamping it
            # would change every recorded shard trace.
            assert "scope" not in event.attrs
        else:
            assert event.attrs["scope"] == f"group.{event.attrs['shard']}"
    # The one resume instant of the run consumed unit 0's link.
    resumes = observer.recorder.select(name="recovery.resume")
    assert [e.attrs["shard"] for e in resumes] == [0]
    assert cluster.pop_resume_link(0) is None
