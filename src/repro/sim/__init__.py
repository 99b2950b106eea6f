"""Deterministic discrete-event simulation kernel.

The kernel provides a virtual clock measured in microseconds (the
natural unit for the paper's hardware: Memory Channel latency is
3.3 us, transactions take 2-20 us) and an event queue with stable
ordering, so every simulation is reproducible.
"""

from repro.sim.clock import VirtualClock
from repro.sim.events import (
    BucketedEventQueue,
    Event,
    EventQueue,
    SHAPE_IRREGULAR,
    SHAPE_SHARED,
    default_event_queue,
)
from repro.sim.engine import Simulator

__all__ = [
    "VirtualClock",
    "Event",
    "EventQueue",
    "BucketedEventQueue",
    "SHAPE_IRREGULAR",
    "SHAPE_SHARED",
    "default_event_queue",
    "Simulator",
]
