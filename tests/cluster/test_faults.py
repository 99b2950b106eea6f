"""Declarative fault injection."""

import pytest

from repro.cluster.faults import CrashPlan, FaultInjector
from tests.obs.select import select_events


def test_plan_requires_exactly_one_trigger():
    with pytest.raises(ValueError):
        CrashPlan()
    with pytest.raises(ValueError):
        CrashPlan(after_transactions=1, at_time_us=1.0)
    CrashPlan(after_transactions=1)
    CrashPlan(at_time_us=5.0)


def test_transaction_count_trigger():
    injector = FaultInjector()
    crashed = []
    injector.schedule(CrashPlan(after_transactions=3), lambda: crashed.append(1))
    assert not injector.on_transaction_committed(2)
    assert injector.on_transaction_committed(3)
    assert crashed == [1]
    assert injector.pending == 0


def test_plan_fires_only_once():
    injector = FaultInjector()
    crashed = []
    injector.schedule(CrashPlan(after_transactions=1), lambda: crashed.append(1))
    injector.on_transaction_committed(1)
    injector.on_transaction_committed(2)
    assert crashed == [1]


def test_time_trigger():
    injector = FaultInjector()
    crashed = []
    injector.schedule(CrashPlan(at_time_us=10.0), lambda: crashed.append(1))
    assert not injector.on_time(9.9)
    assert injector.on_time(10.0)
    assert crashed == [1]


def test_multiple_plans():
    injector = FaultInjector()
    order = []
    injector.schedule(CrashPlan(after_transactions=2), lambda: order.append("a"))
    injector.schedule(CrashPlan(after_transactions=5), lambda: order.append("b"))
    injector.on_transaction_committed(2)
    assert order == ["a"]
    injector.on_transaction_committed(5)
    assert order == ["a", "b"]


def test_fired_history():
    from repro.obs import NullObserver

    # An explicit NullObserver: no clock, whatever REPRO_OBS says.
    injector = FaultInjector(observer=NullObserver())
    plan = CrashPlan(after_transactions=1)
    injector.schedule(plan, lambda: None)
    injector.on_transaction_committed(1)
    assert [f.plan for f in injector.fired] == [plan]
    record = injector.fired[0]
    assert record.plan_repr == repr(plan)
    assert record.at_transactions == 1
    assert record.at_us is None  # no clock attached


def test_time_trigger_records_sim_time():
    injector = FaultInjector()
    plan = CrashPlan(at_time_us=10.0)
    injector.schedule(plan, lambda: None)
    assert not injector.on_time(5.0)
    assert injector.pending == 1
    assert injector.on_time(12.5)
    record = injector.fired[0]
    assert record.plan is plan
    assert record.at_us == 12.5
    assert record.at_transactions is None
    # A fired time plan never re-fires on later ticks.
    assert not injector.on_time(100.0)
    assert len(injector.fired) == 1


def test_transaction_trigger_stamps_time_from_clock():
    injector = FaultInjector(clock=lambda: 42.0)
    injector.schedule(CrashPlan(after_transactions=1), lambda: None)
    injector.on_transaction_committed(1)
    assert injector.fired[0].at_us == 42.0


def test_fired_plan_emits_crash_event():
    from repro.obs import Observer

    observer = Observer()
    observer.bind_clock(lambda: 7.0)
    injector = FaultInjector(observer=observer)
    injector.schedule(CrashPlan(at_time_us=3.0), lambda: None)
    injector.on_time(3.0)
    events = select_events(observer.recorder.events, name="fault.crash")
    assert len(events) == 1
    assert events[0].ts_us == 3.0
    assert events[0].component == "faults"
    assert "at_time_us=3.0" in events[0].attrs["plan"]
    assert observer.registry.value("faults.fired") == 1
