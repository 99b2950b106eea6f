"""Generator-based processes: sleep and busy-wait primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from tests.oracles.sim_process import Process, sleep, wait_for


def test_sleep_suspends_for_simulated_time():
    sim = Simulator()
    trace = []

    def worker():
        trace.append(("start", sim.now))
        yield sleep(5.0)
        trace.append(("middle", sim.now))
        yield sleep(2.5)
        trace.append(("end", sim.now))

    Process(sim, worker(), name="worker")
    sim.run()
    assert trace == [("start", 0.0), ("middle", 5.0), ("end", 7.5)]


def test_wait_for_polls_until_predicate_true():
    sim = Simulator()
    state = {"ready": False}
    trace = []

    def setter():
        yield sleep(3.0)
        state["ready"] = True

    def waiter():
        yield wait_for(lambda: state["ready"], poll=0.5)
        trace.append(sim.now)

    Process(sim, setter())
    Process(sim, waiter())
    sim.run()
    assert len(trace) == 1
    # Detected within one polling period of readiness.
    assert 3.0 <= trace[0] <= 3.5 + 1e-9


def test_process_finishes_and_records_result():
    sim = Simulator()

    def worker():
        yield sleep(1.0)
        return "done"

    process = Process(sim, worker())
    sim.run()
    assert process.finished
    assert process.result == "done"


def test_two_processes_interleave():
    sim = Simulator()
    trace = []

    def ticker(name, period):
        for _ in range(3):
            yield sleep(period)
            trace.append((name, sim.now))

    Process(sim, ticker("fast", 1.0))
    Process(sim, ticker("slow", 2.0))
    sim.run()
    # At t=2.0 both are due; the slow ticker's event was enqueued first
    # (at t=0) so it wins the deterministic tie-break.
    assert trace == [
        ("fast", 1.0), ("slow", 2.0), ("fast", 2.0),
        ("fast", 3.0), ("slow", 4.0), ("slow", 6.0),
    ]


def test_negative_sleep_rejected():
    sim = Simulator()

    def worker():
        yield sleep(-1.0)

    Process(sim, worker())
    with pytest.raises(SimulationError):
        sim.run()


def test_unknown_command_rejected():
    sim = Simulator()

    def worker():
        yield "bogus"

    Process(sim, worker())
    with pytest.raises(SimulationError):
        sim.run()


def test_wait_for_immediately_true_predicate():
    sim = Simulator()
    trace = []

    def worker():
        yield wait_for(lambda: True, poll=10.0)
        trace.append(sim.now)

    Process(sim, worker())
    sim.run()
    assert trace == [0.0]
