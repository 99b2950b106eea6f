"""VirtualClock: monotonic simulated time."""

import pytest

from repro.errors import ClockError
from repro.sim.clock import VirtualClock


def test_starts_at_zero():
    assert VirtualClock().now == 0.0


def test_starts_at_given_time():
    assert VirtualClock(5.5).now == 5.5


def test_negative_start_rejected():
    with pytest.raises(ClockError):
        VirtualClock(-1.0)


def test_advance_to():
    clock = VirtualClock()
    clock.advance_to(10.0)
    assert clock.now == 10.0


def test_advance_to_same_time_is_allowed():
    clock = VirtualClock(3.0)
    clock.advance_to(3.0)
    assert clock.now == 3.0


def test_advance_to_past_rejected():
    clock = VirtualClock(10.0)
    with pytest.raises(ClockError):
        clock.advance_to(9.999)


def test_repr_mentions_time():
    assert "1.500" in repr(VirtualClock(1.5))
