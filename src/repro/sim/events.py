"""Event and event-queue primitives for the simulation kernel.

Events are ordered by (time, sequence number); the sequence number
makes ordering stable and deterministic when several events share a
timestamp.

Two queue implementations provide the same discipline:

* :class:`EventQueue` — a binary heap of
  ``(time, seq, event)`` tuples. Because ``(time, seq)`` is unique,
  every heap comparison resolves at C level on the first two tuple
  slots and the :class:`Event` payload is never compared.
* :class:`BucketedEventQueue` — a hash wheel
  of exact-time buckets (``dict`` keyed by firing time, FIFO deque per
  bucket) over a heap that holds one bare ``float`` per *distinct*
  pending time. Heartbeat chains schedule thousands of events onto a
  handful of shared timestamps; those pushes are O(1) dict appends
  with no heap traffic at all. Irregular times fall back to
  the heap as single-event buckets.

Both pop events in identical ``(time, seq)`` order (FIFO within a
timestamp) — a property the Hypothesis suite checks on random
schedules — so :func:`default_event_queue` can pick either from the
schedule's declared shape without changing any measured output.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple


class Event:
    """A scheduled callback.

    Attributes:
        time: simulated time (microseconds) at which the event fires.
        seq: tie-breaking sequence number assigned by the queue.
        action: zero-argument callable run when the event fires.
        name: optional label for tracing and debugging.
    """

    __slots__ = ("time", "seq", "action", "name")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Callable[[], Any],
        name: str = "",
    ):
        self.time = time
        self.seq = seq
        self.action = action
        self.name = name

    def __repr__(self) -> str:
        return f"Event(time={self.time}, seq={self.seq}, name={self.name!r})"


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    The heap entries are ``(time, seq, event)`` tuples: ``(time, seq)``
    is unique, so tuple comparison never falls through to the event and
    stays entirely in C.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, action: Callable[[], Any], name: str = "") -> Event:
        """Schedule ``action`` at ``time`` and return the event handle."""
        seq = next(self._counter)
        event = Event(time, seq, action, name)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def pop_until(self, until: Optional[float] = None) -> Optional[Event]:
        """Pop the earliest event firing at or before ``until``.

        Returns None — leaving the queue intact — when the queue is
        empty or the earliest event fires after ``until``: the fused
        form of ``peek_time()`` + pop, one heap traversal per event.
        """
        heap = self._heap
        if heap and (until is None or heap[0][0] <= until):
            return heapq.heappop(heap)[2]
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest event, or None."""
        return self._heap[0][0] if self._heap else None

    def distinct_times(self) -> int:
        """Number of distinct firing times among pending entries.

        This is the "timer-wheel occupancy" probe: how many wheel
        buckets the same schedule would occupy.
        """
        return len({entry[0] for entry in self._heap})


class BucketedEventQueue:
    """Hash-wheel event queue: exact-time FIFO buckets over a float heap.

    Same API and same deterministic ``(time, seq)`` pop order as
    :class:`EventQueue`. Scheduling onto a timestamp that already has a
    pending event is a dict lookup plus a deque append — no heap
    operation — which is the common case for the heartbeat-dominated
    event populations where thousands of events share a handful of
    firing times.

    A bucket with a single event is stored as the :class:`Event`
    itself; the deque only materializes on the second arrival at the
    same timestamp, so irregular singleton times pay no container
    allocation.
    """

    def __init__(self) -> None:
        self._heap: List[float] = []  # one entry per distinct pending time
        self._buckets: Dict[float, Any] = {}  # time -> Event | deque[Event]
        self._counter = itertools.count()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def push(self, time: float, action: Callable[[], Any], name: str = "") -> Event:
        """Schedule ``action`` at ``time`` and return the event handle."""
        event = Event(time, next(self._counter), action, name)
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = event
            heapq.heappush(self._heap, time)
        elif type(bucket) is deque:
            bucket.append(event)
        else:
            buckets[time] = deque((bucket, event))
        self._size += 1
        return event

    def pop_until(self, until: Optional[float] = None) -> Optional[Event]:
        """Pop the earliest event firing at or before ``until``.

        Returns None — leaving the queue intact — when the queue is
        empty or the earliest event fires after ``until``.
        """
        heap = self._heap
        if not heap:
            return None
        time = heap[0]
        if until is not None and time > until:
            return None
        buckets = self._buckets
        bucket = buckets[time]
        if type(bucket) is deque:
            event = bucket.popleft()
            if not bucket:
                heapq.heappop(heap)
                del buckets[time]
        else:
            event = bucket
            heapq.heappop(heap)
            del buckets[time]
        self._size -= 1
        return event

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest event, or None."""
        return self._heap[0] if self._heap else None

    def distinct_times(self) -> int:
        """Number of distinct firing times among pending entries.

        For the wheel this is exactly the number of buckets (one heap
        float per distinct time); matches the heap queue's figure for
        identical contents.
        """
        return len(self._heap)


#: Schedule-shape hints for :func:`default_event_queue`. "shared"
#: means the population repeats exact timestamps heavily (heartbeat
#: chains across cluster members, takeover timers); "irregular" means
#: timestamps rarely collide (link service completions, per-stream
#: CPU phases).
SHAPE_IRREGULAR = "irregular"
SHAPE_SHARED = "shared"


def default_event_queue(shape: str = SHAPE_IRREGULAR):
    """The queue implementation for a new simulator.

    The bucketed wheel beats the tuple heap only when pushes actually
    collide on timestamps, so the declared shape alone selects:
    simulators declaring ``SHAPE_SHARED`` (cluster/shard heartbeat
    machinery) get the wheel, everything else the heap. End to end the
    wheel is worth 18% of the ledger's ``failover-timeline`` wall time
    (median 5.30 s vs 6.26 s with the heap everywhere, ahead in 10 of
    10 alternating pairs; ROADMAP item 2)."""
    if shape == SHAPE_SHARED:
        return BucketedEventQueue()
    return EventQueue()
