"""The single instrumentation handle threaded through the stack.

Every instrumentable component takes an optional ``observer``; the
default resolves to :data:`NULL_OBSERVER`, whose every method is a
no-op and whose ``enabled`` flag is False so hot paths can skip even
building attribute dicts. A real :class:`Observer` bundles one shared
:class:`~repro.obs.metrics.MetricsRegistry` and one shared
:class:`~repro.obs.trace.TraceRecorder` behind a simulated-time clock.

Scoping gives the hierarchical namespace: ``observer.scoped("shard.0")``
returns a view onto the *same* registry and recorder that prefixes
every metric name and component with ``shard.0.`` — which is how one
trace file ends up telling apart four pairs' heartbeats.

The clock is bound late: a :class:`~repro.sim.engine.Simulator` (or
anything with a ``now``) attaches itself via :meth:`bind_clock` when
the observer reaches it, so construction order does not matter.
Components used outside any simulator stamp events at time 0.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Sequence

from repro.obs.metrics import DEFAULT_BOUNDS, Histogram, MetricsRegistry
from repro.obs.trace import TraceEvent, TraceRecorder


class NullObserver:
    """The default-off observer: records nothing, costs one attribute
    check per instrumentation site."""

    enabled = False

    def bind_clock(self, clock: Callable[[], float], force: bool = False) -> None:
        pass

    def scoped(self, prefix: str) -> "NullObserver":
        return self

    def metric_name(self, name: str) -> str:
        return name

    @property
    def now(self) -> float:
        return 0.0

    def count(self, name: str, amount: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float,
                bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        pass

    def event(self, component: str, name: str, **attrs: object) -> None:
        pass

    def event_at(self, ts_us: float, component: str, name: str,
                 **attrs: object) -> None:
        pass

    def span(self, component: str, name: str, start_us: float,
             end_us: float, **attrs: object) -> None:
        pass

    def new_trace_id(self) -> int:
        return 0

    def linked_span(
        self, component: str, name: str, start_us: float, end_us: float,
        trace_id: int, parent_id: Optional[int] = None, **attrs: object,
    ) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullObserver()"


#: The process-wide no-op instance every un-observed component shares.
NULL_OBSERVER = NullObserver()


class Observer:
    """A live observer: metrics + trace + clock, optionally scoped."""

    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        registry: Optional[MetricsRegistry] = None,
        recorder: Optional[TraceRecorder] = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = recorder if recorder is not None else TraceRecorder()
        self._clock = clock
        self._prefix = ""
        self._parent: Optional[Observer] = None
        self._next_id = 0

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        root = self._root()
        return root._clock() if root._clock is not None else 0.0

    def bind_clock(
        self, clock: Callable[[], float], force: bool = False
    ) -> None:
        """Attach a simulated-time source; first binding wins unless
        forced, so a shared observer keeps the shared simulator's clock
        even when several components offer theirs."""
        root = self._root()
        if root._clock is None or force:
            root._clock = clock

    def _root(self) -> "Observer":
        observer = self
        while observer._parent is not None:
            observer = observer._parent
        return observer

    # -- scoping -------------------------------------------------------------

    def scoped(self, prefix: str) -> "Observer":
        """A view prefixing metric names and components with ``prefix``."""
        if not prefix:
            return self
        child = Observer(registry=self.registry, recorder=self.recorder)
        child._prefix = self._join(prefix)
        child._parent = self
        return child

    @property
    def prefix(self) -> str:
        return self._prefix

    def metric_name(self, name: str) -> str:
        """``name`` as this scope records it (prefix applied) — for
        handing fully-qualified names to registry-level bridges."""
        return self._join(name)

    def _join(self, name: str) -> str:
        return f"{self._prefix}.{name}" if self._prefix else name

    # -- metrics -------------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        self.registry.counter(self._join(name)).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        self.registry.gauge(self._join(name)).set(value)

    def observe(
        self, name: str, value: float,
        bounds: Sequence[float] = DEFAULT_BOUNDS,
    ) -> Histogram:
        histogram = self.registry.histogram(self._join(name), bounds)
        histogram.observe(value)
        return histogram

    # -- tracing -------------------------------------------------------------

    def event(self, component: str, name: str, **attrs: object) -> TraceEvent:
        """Record an instant event at the current simulated time."""
        return self.recorder.instant(self.now, self._join(component), name, **attrs)

    def event_at(
        self, ts_us: float, component: str, name: str, **attrs: object
    ) -> TraceEvent:
        """Record an instant event at an explicit simulated time (for
        occurrences scheduled at a known future instant)."""
        return self.recorder.instant(ts_us, self._join(component), name, **attrs)

    def span(
        self, component: str, name: str, start_us: float, end_us: float,
        **attrs: object,
    ) -> TraceEvent:
        """Record a completed span ``[start_us, end_us]``."""
        return self.recorder.span(
            start_us, end_us - start_us, self._join(component), name, **attrs
        )

    # -- causal spans --------------------------------------------------------

    def new_trace_id(self) -> int:
        """A fresh id for one causal trace (e.g. one commit) or one
        span: both draw from one sequence, so any id is unique across
        every scope sharing this observer's recorder."""
        root = self._root()
        root._next_id += 1
        return root._next_id

    def linked_span(
        self, component: str, name: str, start_us: float, end_us: float,
        trace_id: int, parent_id: Optional[int] = None, **attrs: object,
    ) -> int:
        """Record a span causally linked into trace ``trace_id``.

        The span gets its own ``span_id`` (returned, so children can
        point at it); ``parent_id`` names the enclosing span, or is
        omitted for a trace root. The links live in ``attrs``, which is
        what lets them survive the JSONL and Chrome exports unchanged.
        """
        span_id = self.new_trace_id()
        if parent_id is not None:
            attrs["parent_id"] = parent_id
        self.recorder.span(
            start_us, end_us - start_us, self._join(component), name,
            trace_id=trace_id, span_id=span_id, **attrs,
        )
        return span_id

    def __repr__(self) -> str:
        scope = f", prefix={self._prefix!r}" if self._prefix else ""
        return (
            f"Observer({len(self.recorder)} events, "
            f"{len(self.registry)} metrics{scope})"
        )


#: Environment variable that flips the process default from the
#: NullObserver to a real in-memory Observer. CI runs the tier-1 suite
#: once with it set and once without, guarding the default-off contract.
OBS_ENV_VAR = "REPRO_OBS"

_default_observer: Optional[Observer] = None


def get_default_observer():
    """The observer components fall back to when given none.

    Returns :data:`NULL_OBSERVER` unless :data:`OBS_ENV_VAR` is set to
    a non-empty, non-"0" value, in which case one shared in-memory
    :class:`Observer` is created lazily for the whole process.
    """
    global _default_observer
    flag = os.environ.get(OBS_ENV_VAR, "")
    if not flag or flag == "0":
        return NULL_OBSERVER
    if _default_observer is None:
        _default_observer = Observer()
    return _default_observer


def reset_default_observer() -> None:
    """Drop the process-default observer so the next
    :func:`get_default_observer` call builds a fresh one.

    The parallel experiment runner's workers call this before each
    cell: a pool process computes many cells back to back, and without
    the reset each cell's metrics snapshot would also contain every
    earlier cell's counts, double-counting them at the merge."""
    global _default_observer
    _default_observer = None


def resolve_observer(observer):
    """``observer`` itself, or the process default when None."""
    return observer if observer is not None else get_default_observer()
