"""Virtual clock for discrete-event simulation.

Time is a float in microseconds. The clock only moves forward;
attempting to rewind raises :class:`~repro.errors.ClockError`.
"""

from __future__ import annotations

from repro.errors import ClockError


class VirtualClock:
    """A monotonically non-decreasing simulated clock.

    The clock starts at zero. All simulation components share one clock
    instance owned by the :class:`~repro.sim.Simulator`.
    """

    __slots__ = ("_now",)

    def __init__(self):
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    def advance_to(self, when: float) -> None:
        """Move the clock forward to ``when``.

        Raises:
            ClockError: if ``when`` is earlier than the current time.
        """
        if when < self._now:
            raise ClockError(
                f"cannot move clock backwards from {self._now} to {when}"
            )
        self._now = when

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:.3f}us)"
