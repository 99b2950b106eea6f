"""Simulator: the discrete-event loop."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_runs_events_in_order_and_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule_at(2.0, lambda: seen.append(("b", sim.now)))
    sim.schedule_at(1.0, lambda: seen.append(("a", sim.now)))
    sim.run()
    assert seen == [("a", 1.0), ("b", 2.0)]
    assert sim.now == 2.0


def test_schedule_after_is_relative():
    sim = Simulator(10.0)
    seen = []
    sim.schedule_after(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [15.0]


def test_schedule_in_past_rejected():
    sim = Simulator(10.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(9.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_after(-1.0, lambda: None)


# NaN fails every comparison, so "when < now" style guards let it in: a
# NaN event fired out of order ([1, 3, nan, 5] for events at 5, nan, 1,
# 3), a NaN delay left the clock at NaN, a NaN horizon never stopped.


def test_schedule_at_nan_rejected_naming_the_value():
    sim = Simulator()
    with pytest.raises(SimulationError, match="nan"):
        sim.schedule_at(float("nan"), lambda: None)
    assert len(sim.queue) == 0


def test_schedule_after_nan_rejected_naming_the_value():
    sim = Simulator()
    with pytest.raises(SimulationError, match="nan"):
        sim.schedule_after(float("nan"), lambda: None)
    assert sim.run() == 0.0


def test_run_until_nan_rejected_before_any_event():
    sim = Simulator()
    fired = []

    def beat():  # a self-rescheduling population: no horizon, no end
        fired.append(sim.now)
        sim.schedule_after(1.0, beat)

    sim.schedule_at(0.0, beat)
    with pytest.raises(SimulationError, match="nan"):
        sim.run(until=float("nan"))
    assert fired == []
    sim.run(until=2.0)  # the refusal left the simulator usable
    assert fired == [0.0, 1.0, 2.0]


def test_events_can_schedule_events():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.schedule_after(1.0, lambda: seen.append("second"))

    sim.schedule_at(1.0, first)
    sim.run()
    assert seen == ["first", "second"]
    assert sim.now == 2.0


def test_run_until_stops_and_advances_exactly():
    sim = Simulator()
    seen = []
    sim.schedule_at(1.0, lambda: seen.append(1))
    sim.schedule_at(5.0, lambda: seen.append(5))
    sim.run(until=3.0)
    assert seen == [1]
    assert sim.now == 3.0
    sim.run()
    assert seen == [1, 5]


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_max_events():
    sim = Simulator()
    seen = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule_at(t, lambda t=t: seen.append(t))
    sim.run(max_events=2)
    assert seen == [1.0, 2.0]


def test_step_returns_false_when_drained():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule_at(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_events_processed_counter():
    sim = Simulator()
    for t in range(5):
        sim.schedule_at(float(t), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_reentrant_run_rejected():
    sim = Simulator()

    def reenter():
        sim.run()

    sim.schedule_at(1.0, reenter)
    with pytest.raises(SimulationError):
        sim.run()


def test_cancelled_event_not_executed():
    sim = Simulator()
    seen = []
    event = sim.schedule_at(1.0, lambda: seen.append("x"))
    event.cancel()
    sim.run()
    assert seen == []


def test_observed_run_reports_once_at_exit_and_step_per_event():
    from repro.obs.observer import Observer

    observer = Observer()
    sim = Simulator(observer=observer)
    counted_mid_run = []
    for t in range(5):
        sim.schedule_at(float(t), lambda: counted_mid_run.append(
            observer.registry.value("sim.events")))
    sim.schedule_at(9.0, lambda: None)
    sim.run(until=5.0)
    # The observed run is the detached hot loop: nothing is counted
    # while it spins, everything when it returns.
    assert counted_mid_run == [0.0] * 5
    assert observer.registry.value("sim.events") == 5 == sim.events_processed
    assert observer.registry.value("sim.queue_depth") == 1
    assert sim.step() is True  # step() still reports each event
    assert observer.registry.value("sim.events") == 6
    assert observer.registry.value("sim.queue_depth") == 0
    sim.run()  # nothing left: an empty run reports nothing
    assert observer.registry.value("sim.events") == 6
