"""Network-partition plans on the shared fault injector."""

import pytest

from repro.cluster.faults import FaultInjector, PartitionPlan
from repro.obs import Observer
from tests.obs.select import select_events


def test_heal_cannot_precede_the_cut():
    with pytest.raises(ValueError):
        PartitionPlan(at_time_us=500.0, heal_at_us=100.0)
    # Healing at the same instant is allowed (a zero-length blip).
    PartitionPlan(at_time_us=500.0, heal_at_us=500.0)


def test_partition_then_heal_fire_in_order_with_trace_events():
    observer = Observer()
    injector = FaultInjector(observer=observer)
    log = []
    plan = PartitionPlan(
        at_time_us=100.0, heal_at_us=300.0, description="[0] | [1, 2]"
    )
    injector.schedule_partition(
        plan, lambda: log.append("cut"), lambda: log.append("heal")
    )
    assert injector.pending == 2

    assert injector.on_time(50.0) is False
    assert log == []
    assert injector.on_time(100.0) is True
    assert log == ["cut"]
    assert injector.pending == 1
    # The cut never re-fires while waiting for the heal.
    assert injector.on_time(200.0) is False
    assert injector.on_time(300.0) is True
    assert log == ["cut", "heal"]
    assert injector.pending == 0

    events = [e for e in observer.recorder.events
              if e.name in ("fault.partition", "fault.heal")]
    assert [e.name for e in events] == ["fault.partition", "fault.heal"]
    assert [e.ts_us for e in events] == [100.0, 300.0]
    for event in events:
        assert event.attrs["symmetric"] is True
        assert event.attrs["sides"] == "[0] | [1, 2]"
        assert "PartitionPlan" in event.attrs["plan"]

    assert len(injector.fired) == 2
    assert injector.fired[0].plan is plan
    assert injector.fired[1].plan is plan


def test_cut_and_heal_fire_together_when_time_jumps_past_both():
    injector = FaultInjector()
    log = []
    injector.schedule_partition(
        PartitionPlan(at_time_us=100.0, heal_at_us=200.0),
        lambda: log.append("cut"), lambda: log.append("heal"),
    )
    assert injector.on_time(1_000.0) is True
    assert log == ["cut", "heal"]
    assert injector.pending == 0


def test_partition_without_heal_is_permanent():
    observer = Observer()
    injector = FaultInjector(observer=observer)
    log = []
    injector.schedule_partition(
        PartitionPlan(at_time_us=100.0, symmetric=False),
        lambda: log.append("cut"),
    )
    injector.on_time(100.0)
    injector.on_time(9_999.0)
    assert log == ["cut"]
    assert injector.pending == 0
    events = select_events(observer.recorder.events, name="fault.partition")
    assert len(events) == 1
    assert events[0].attrs["symmetric"] is False
    assert not select_events(observer.recorder.events, name="fault.heal")


def test_partitions_coexist_with_crash_plans():
    from repro.cluster.faults import CrashPlan

    injector = FaultInjector()
    log = []
    injector.schedule(CrashPlan(at_time_us=150.0), lambda: log.append("crash"))
    injector.schedule_partition(
        PartitionPlan(at_time_us=100.0, heal_at_us=200.0),
        lambda: log.append("cut"), lambda: log.append("heal"),
    )
    assert injector.pending == 3
    injector.on_time(100.0)
    injector.on_time(150.0)
    injector.on_time(200.0)
    assert log == ["cut", "crash", "heal"]
    assert injector.pending == 0
