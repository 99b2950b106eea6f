"""Quorum clusters behind the shard router."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import Observer
from repro.quorum.cluster import QuorumCluster
from repro.quorum.workload import KeyPartitioner, QuorumWorkload
from repro.shard.router import Router


def make_cluster(num_groups=2, observer=None, **kw):
    kw.setdefault("replicas_per_group", 3)
    kw.setdefault("read_quorum", 2)
    kw.setdefault("write_quorum", 2)
    kw.setdefault("keys_per_group", 8)
    return QuorumCluster(num_groups, observer=observer, **kw)


def test_partitioner_shapes_are_validated():
    with pytest.raises(ConfigurationError):
        KeyPartitioner(0, 4)
    with pytest.raises(ConfigurationError):
        KeyPartitioner(4, 2)
    assert KeyPartitioner(3, 9).shard_of(7) == 1


def test_workload_round_trips_its_counter_encoding():
    workload = QuorumWorkload(2, 8, value_bytes=32, seed=7)
    value = workload.encode_value(1, 3, 42)
    assert len(value) == 32
    assert workload.decode_counter(value) == 42
    assert workload.decode_counter(b"garbage") == 0


def test_router_drives_the_quorum_cluster_end_to_end():
    cluster = make_cluster(num_groups=2)
    workload = QuorumWorkload(2, 8, seed=11)
    cluster.setup(workload)
    router = Router(cluster, workload, observer=cluster.observer)
    for slot in range(8):
        router.submit(key=slot % 2, at_us=slot * 100.0)
    cluster.run_until(2_000.0)
    assert router.completed == 8
    assert router.dropped == 0
    assert workload.transactions_run == 8
    # Every acked counter is readable back through a quorum read.
    for (group_id, key), counter in workload.acked.items():
        value = cluster.groups[group_id].value_of(key)
        assert workload.decode_counter(value) == counter


def test_router_retries_through_a_scheduled_quorum_loss():
    cluster = make_cluster(num_groups=1)
    workload = QuorumWorkload(1, 8, seed=3)
    cluster.setup(workload)
    router = Router(cluster, workload, max_attempts=12,
                    observer=cluster.observer)
    cluster.crash(0, 0, 50.0)
    cluster.crash(0, 1, 60.0)
    cluster.recover(0, 1, 900.0)
    router.submit(key=0, at_us=100.0)
    cluster.run_until(10_000.0)
    assert router.completed == 1
    assert router.retries > 0
    assert cluster.groups[0].stats.quorum_losses == 1


def test_scheduled_partition_cuts_then_heals_with_trace_events():
    observer = Observer()
    cluster = make_cluster(num_groups=1, observer=observer)
    plan = cluster.partition(
        0, (0,), (1, 2), at_us=100.0, heal_at_us=300.0
    )
    assert plan.symmetric
    cluster.run_until(200.0)
    group = cluster.groups[0]
    assert not group._connected(0, 1)
    cluster.run_until(400.0)
    assert group._connected(0, 1)
    names = [e.name for e in observer.recorder.events
             if e.name.startswith("fault.")]
    assert names == ["fault.partition", "fault.heal"]


def test_stats_rolls_up_every_group():
    cluster = make_cluster(num_groups=2)
    cluster.groups[0].write(1, b"x")
    stats = cluster.stats
    assert set(stats) == {0, 1}
    assert stats[0]["writes"] == 1
    assert stats[1]["writes"] == 0


def test_repair_pass_all_sweeps_every_group():
    cluster = make_cluster(num_groups=2)
    for group in cluster.groups:
        group.crash_member(2)
        group.write(0, b"diverge")
        group.recover_member(2)
    assert cluster.repair_pass_all() >= 2
    assert all(group.replicas_converged() for group in cluster.groups)
