"""VirtualClock: monotonic simulated time."""

import pytest

from repro.errors import ClockError
from repro.sim.clock import VirtualClock


def test_starts_at_zero():
    assert VirtualClock().now == 0.0


def test_advance_to():
    clock = VirtualClock()
    clock.advance_to(10.0)
    assert clock.now == 10.0


def test_advance_to_same_time_is_allowed():
    clock = VirtualClock()
    clock.advance_to(3.0)
    clock.advance_to(3.0)
    assert clock.now == 3.0


def test_advance_to_past_rejected():
    clock = VirtualClock()
    clock.advance_to(10.0)
    with pytest.raises(ClockError):
        clock.advance_to(9.999)


def test_repr_mentions_time():
    clock = VirtualClock()
    clock.advance_to(1.5)
    assert "1.500" in repr(clock)
