"""Generator-based processes on top of the event engine.

A process is a Python generator that yields *commands*:

* ``sleep(delay)`` — suspend for ``delay`` simulated microseconds.
* ``wait_for(predicate, poll)`` — poll ``predicate`` every ``poll``
  microseconds until it returns True (models busy-waiting, e.g. the
  active backup polling the redo-log producer pointer).

This is intentionally small. It was kernel API under ``src/`` until
its last caller there, the SMP validation (:mod:`repro.perf.smp_sim`),
moved to plain callbacks; it lives here beside the one thing that
still runs on it, that validation's polling original
(``smp_sim_reference.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class _Sleep:
    __slots__ = ("delay",)

    def __init__(self, delay: float):
        self.delay = delay


class _WaitFor:
    __slots__ = ("predicate", "poll")

    def __init__(self, predicate: Callable[[], bool], poll: float):
        self.predicate = predicate
        self.poll = poll


def sleep(delay: float) -> _Sleep:
    """Yield from a process to suspend for ``delay`` microseconds."""
    return _Sleep(delay)


def wait_for(predicate: Callable[[], bool], poll: float = 0.1) -> _WaitFor:
    """Yield from a process to busy-wait until ``predicate()`` is True.

    ``poll`` is the simulated polling interval in microseconds.
    """
    return _WaitFor(predicate, poll)


class Process:
    """Drives a generator through the simulator's event queue."""

    __slots__ = ("sim", "generator", "name", "finished", "result")

    def __init__(
        self,
        sim: Simulator,
        generator: Generator[Any, None, None],
        name: str = "process",
    ):
        self.sim = sim
        self.generator = generator
        self.name = name
        self.finished = False
        self.result: Optional[Any] = None
        self._start()

    def _start(self) -> None:
        self.sim.schedule_after(0.0, self._resume, name=f"{self.name}:start")

    def _resume(self) -> None:
        if self.finished:
            return
        try:
            command = next(self.generator)
        except StopIteration as stop:
            self.finished = True
            self.result = getattr(stop, "value", None)
            return
        self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        if isinstance(command, _Sleep):
            if command.delay < 0:
                raise SimulationError(f"process {self.name} slept negative time")
            self.sim.schedule_after(command.delay, self._resume, name=self.name)
        elif isinstance(command, _WaitFor):
            self._poll(command)
        else:
            raise SimulationError(
                f"process {self.name} yielded unsupported command {command!r}"
            )

    def _poll(self, command: _WaitFor) -> None:
        # One closure serves every poll tick of this wait: predicate
        # checked synchronously, resume at +0.0, retry after ``poll``.
        predicate = command.predicate
        poll = command.poll
        schedule_after = self.sim.schedule_after
        resume = self._resume
        resume_name = self.name
        poll_name = f"{self.name}:poll"

        def tick() -> None:
            if predicate():
                schedule_after(0.0, resume, name=resume_name)
            else:
                schedule_after(poll, tick, name=poll_name)

        tick()
