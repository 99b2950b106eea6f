"""Network partitions scheduled through ``RoutedCluster.partition``."""

import pytest

from repro.obs import Observer
from repro.quorum import QuorumCluster
from repro.shard.cluster import PartitionPlan
from tests.obs.select import select_events


def make(observer=None):
    return QuorumCluster(
        1, replicas_per_group=3, read_quorum=2, write_quorum=2,
        keys_per_group=8, observer=observer,
    )


def fault_events(observer):
    return [e for e in observer.recorder.events
            if e.name in ("fault.partition", "fault.heal")]


def test_heal_cannot_precede_the_cut():
    with pytest.raises(ValueError):
        PartitionPlan(at_time_us=500.0, heal_at_us=100.0)
    # Healing at the same instant is allowed (a zero-length blip).
    PartitionPlan(at_time_us=500.0, heal_at_us=500.0)
    # The verb builds the plan, so it refuses the same schedule.
    with pytest.raises(ValueError):
        make().partition(0, [0], [1, 2], at_us=500.0, heal_at_us=100.0)


def test_partition_then_heal_fire_in_order_with_trace_events():
    observer = Observer()
    cluster = make(observer)
    group = cluster.groups[0]
    plan = cluster.partition(0, [0], [1, 2], at_us=100.0, heal_at_us=300.0)
    assert plan == PartitionPlan(
        at_time_us=100.0, heal_at_us=300.0, description="group0: [0] | [1, 2]"
    )

    cluster.run_until(50.0)
    assert group._connected(0, 1) and not fault_events(observer)
    cluster.run_until(200.0)
    assert not group._connected(0, 1) and not group._connected(1, 0)
    cluster.run_until(400.0)
    assert group._connected(0, 1)

    events = fault_events(observer)
    assert [e.name for e in events] == ["fault.partition", "fault.heal"]
    assert [e.ts_us for e in events] == [100.0, 300.0]
    for event in events:
        assert event.component == "faults"
        assert event.attrs == {
            "plan": repr(plan), "symmetric": True,
            "sides": "group0: [0] | [1, 2]",
        }
    assert observer.registry.snapshot()["counters"]["faults.fired"] == 2


def test_cut_and_heal_fire_together_when_time_jumps_past_both():
    observer = Observer()
    cluster = make(observer)
    cluster.partition(0, [0], [1, 2], at_us=100.0, heal_at_us=200.0)
    cluster.run_until(1_000.0)
    assert [e.name for e in fault_events(observer)] == [
        "fault.partition", "fault.heal",
    ]
    assert cluster.groups[0]._connected(0, 1)


def test_partition_without_heal_is_permanent():
    observer = Observer()
    cluster = make(observer)
    cluster.partition(0, [0], [1], at_us=100.0, symmetric=False)
    cluster.run_until(9_999.0)
    group = cluster.groups[0]
    # One-way loss: 0's packets to 1 drop, 1 still reaches 0.
    assert not group._connected(0, 1)
    assert group._connected(1, 0)
    events = select_events(observer.recorder.events, name="fault.partition")
    assert len(events) == 1
    assert events[0].attrs["symmetric"] is False
    assert not select_events(observer.recorder.events, name="fault.heal")


def test_partitions_coexist_with_crash_plans():
    # Faults at one instant fire in the order they were scheduled.
    observer = Observer()
    cluster = make(observer)
    cluster.crash(0, 2, 100.0)
    cluster.partition(0, [0], [1, 2], at_us=100.0, heal_at_us=200.0)
    cluster.crash(0, 1, 100.0)
    cluster.run_until(1_000.0)
    log = [
        (e.name, e.attrs.get("member"))
        for e in observer.recorder.events
        if e.name in ("quorum.member.crash", "fault.partition", "fault.heal")
    ]
    assert log == [
        ("quorum.member.crash", 2),
        ("fault.partition", None),
        ("quorum.member.crash", 1),
        ("fault.heal", None),
    ]
