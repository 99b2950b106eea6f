"""The discrete-event simulator.

A :class:`Simulator` owns the virtual clock and the event queue and
runs events in timestamp order.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.obs.observer import resolve_observer
from repro.sim.clock import VirtualClock
from repro.sim.events import Event, EventQueue, default_event_queue


class Simulator:
    """Deterministic discrete-event simulator.

    An attached observer (default: the no-op ``NULL_OBSERVER``) gets
    this simulator's clock as its time source and, when each ``run``
    returns, the events it executed (``sim.events``) and the queue
    depth it left (``sim.queue_depth``) — ``run`` is the same loop
    observed or not; only ``step`` reports per event.

    The event queue defaults to the heap
    (:func:`~repro.sim.events.default_event_queue` for an irregular
    schedule); owners of heartbeat populations pass the wheel as
    ``queue``. Both pop in identical (time, seq) order.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule_at(5.0, lambda: fired.append(sim.now))
        >>> sim.run()
        5.0
        >>> fired
        [5.0]
    """

    def __init__(self, start_time: float = 0.0, observer=None, queue=None):
        self.clock = VirtualClock(start_time)
        self.queue = default_event_queue() if queue is None else queue
        self.observer = resolve_observer(observer)
        self.observer.bind_clock(lambda: self.clock.now)
        self._running = False
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self.clock.now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    def schedule_at(
        self, when: float, action: Callable[[], Any], name: str = ""
    ) -> Event:
        """Schedule ``action`` at absolute simulated time ``when``."""
        if not when >= self.now:  # "not >=": NaN compares false and is refused too
            raise SimulationError(
                f"cannot schedule event at {when}, not at or after "
                f"current time {self.now}"
            )
        return self.queue.push(when, action, name)

    def schedule_after(
        self, delay: float, action: Callable[[], Any], name: str = ""
    ) -> Event:
        """Schedule ``action`` ``delay`` microseconds from now."""
        if not delay >= 0:  # NaN too
            raise SimulationError(f"cannot schedule with negative or NaN delay {delay}")
        return self.queue.push(self.now + delay, action, name)

    def step(self) -> bool:
        """Run the next event. Returns False when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        self._events_processed += 1
        if self.observer.enabled:
            self.observer.count("sim.events")
            self.observer.gauge("sim.queue_depth", len(self.queue))
        event.action()
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.

        Returns the simulated time when the run stopped. When stopping
        because of ``until``, the clock is advanced to exactly ``until``
        and pending later events remain queued.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        if until != until:  # NaN: no event time ever exceeds it
            raise SimulationError(f"cannot run until {until}")
        self._running = True
        executed = 0
        queue = self.queue
        pop_until = queue.pop_until
        advance_to = self.clock.advance_to
        try:
            if max_events is None:
                # Hot loop: one heap traversal per event (pop_until
                # fuses the old peek_time + pop pair) and no per-event
                # bookkeeping beyond the counter.
                while True:
                    event = pop_until(until)
                    if event is None:
                        break
                    advance_to(event.time)
                    executed += 1
                    event.action()
            else:
                while executed < max_events:
                    event = pop_until(until)
                    if event is None:
                        break
                    advance_to(event.time)
                    executed += 1
                    event.action()
            if until is not None and self.now < until:
                advance_to(until)
        finally:
            self._running = False
            self._events_processed += executed
            if executed and self.observer.enabled:
                self.observer.count("sim.events", executed)
                self.observer.gauge("sim.queue_depth", len(queue))
        return self.now

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.3f}us, pending={len(self.queue)}, "
            f"processed={self._events_processed})"
        )
