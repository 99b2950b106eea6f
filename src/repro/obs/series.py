"""Sim-time time-series sampling.

The paper's headline claims are curves over time — the availability dip
during failover, traffic under degraded modes — but counters and
histogram summaries only show end-of-run totals. This module adds the
instrument that draws the curves:

* :class:`TimeSeriesSampler` registers named probe callbacks (event
  queue depth, router in-flight, per-scope completions, hint backlog)
  and samples them on a fixed sim-time tick. Ticks are **pre-scheduled
  at attach time**, before the model schedules any work, so at any
  shared timestamp the sampler's events carry the smallest sequence
  numbers and fire *first*. A sample at tick ``t`` therefore observes
  exactly the state produced by events strictly before ``t`` — the
  half-open ``[0, t)`` prefix — which is what makes the windowed
  derivations below agree *exactly* with trace-derived window counts.
* :class:`SeriesFrame` holds the columnar result (one time axis, one
  float column per probe), rebuilt from a recorded trace's
  ``series.sample`` events (the trace is the series' only file
  format), with an ASCII sparkline renderer.
* :func:`windowed_goodput` / :func:`derive_dip` turn a cumulative
  counter column into per-window rates and a dip-and-recovery summary
  (depth, duration, time to recover).

The zero-cost discipline holds: the sampler only *reads* model state,
never mutates it, and its tick events advance the clock to instants the
run would reach anyway (multiples of the tick inside the horizon), so
measured outputs are the same with the sampler attached at any tick
that divides the window — a property tier 1 checks by quartering the
tick of both timelines (``tests/obs/test_series.py``). The timelines
sample on one tick, the slot width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.obs.observer import NULL_OBSERVER
from repro.obs.trace import TraceEvent

#: Trace vocabulary: one instant event per tick, all probe values in attrs.
SAMPLE_EVENT = "series.sample"

_SPARK_RAMP = " .:-=+*#%@"
#: Most characters a rendered sparkline spans.
_SPARK_WIDTH = 64


class SeriesFrame:
    """Columnar time series: one shared time axis, one column per probe.

    Append-only and column-stable: the first :meth:`append` fixes the
    column set, later appends must supply exactly the same names.
    """

    def __init__(self) -> None:
        self._times: List[float] = []
        self._columns: Dict[str, List[float]] = {}

    def __len__(self) -> int:
        return len(self._times)

    def __bool__(self) -> bool:
        return bool(self._times)

    @property
    def times_us(self) -> List[float]:
        return list(self._times)

    def values(self, name: str) -> List[float]:
        """The value column for ``name``."""
        return list(self._columns[name])

    def last(self, name: str) -> float:
        return self._columns[name][-1]

    def append(self, ts_us: float, sample: Mapping[str, float]) -> None:
        """Add one sample row; the column set must match prior rows."""
        if not self._columns:
            self._columns = {name: [] for name in sample}
        elif set(sample) != set(self._columns):
            raise ValueError(
                f"sample columns {sorted(sample)} != frame columns "
                f"{sorted(self._columns)}"
            )
        self._times.append(float(ts_us))
        for name, column in self._columns.items():
            column.append(float(sample[name]))

    def to_dict(self) -> Dict[str, object]:
        # Columns are serialized in sorted order so the encoding is
        # canonical: a frame rebuilt from trace events (whose attrs are
        # sort_keys-serialized) produces the same dict as the sampler's
        # own frame.
        return {
            "columns": sorted(self._columns),
            "times_us": self.times_us,
            "values": {name: list(self._columns[name])
                       for name in sorted(self._columns)},
        }

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "SeriesFrame":
        """Rebuild a frame from ``series.sample`` trace events, e.g.
        after a JSONL round trip. Column order follows the first
        event's attribute order (insertion-ordered dicts survive JSON)."""
        frame = cls()
        for event in events:
            if event.name != SAMPLE_EVENT:
                continue
            frame.append(event.ts_us,
                         {k: float(v) for k, v in event.attrs.items()})
        return frame

    # -- rendering ---------------------------------------------------

    def render(self) -> str:
        """ASCII sparkline table: one row per column, bucketed to at
        most :data:`_SPARK_WIDTH` characters, with min/max/last
        annotations."""
        if not self._times:
            return "(empty series)\n"
        lines = [
            f"series: {len(self)} samples, "
            f"{self._times[0]:.0f}..{self._times[-1]:.0f} us"
        ]
        label_width = max(len(name) for name in self._columns)
        for name in sorted(self._columns):
            column = self._columns[name]
            lo, hi = min(column), max(column)
            spark = _sparkline(column, _SPARK_WIDTH, lo, hi)
            lines.append(
                f"  {name:<{label_width}} |{spark}| "
                f"min {_fmt(lo)}  max {_fmt(hi)}  last {_fmt(column[-1])}"
            )
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.2f}"


def _sparkline(column: Sequence[float], width: int, lo: float, hi: float) -> str:
    # Bucket by mean so short frames render one char per sample and
    # long frames compress; the ramp is pure ASCII for CI logs.
    buckets: List[float] = []
    n = len(column)
    if n <= width:
        buckets = list(column)
    else:
        for b in range(width):
            start = b * n // width
            stop = max(start + 1, (b + 1) * n // width)
            chunk = column[start:stop]
            buckets.append(sum(chunk) / len(chunk))
    span = hi - lo
    top = len(_SPARK_RAMP) - 1
    chars = []
    for value in buckets:
        frac = 0.0 if span == 0 else (value - lo) / span
        chars.append(_SPARK_RAMP[int(round(frac * top))])
    return "".join(chars)


# -- windowed derivations -------------------------------------------


def windowed_goodput(
    frame: SeriesFrame, name: str, window_us: float
) -> List[float]:
    """Per-window increments of a cumulative counter column.

    The delta observed between consecutive ticks ``t[i-1] -> t[i]``
    counts occurrences in ``[t[i-1], t[i])`` (samples fire before model
    events at the same instant), so when the tick divides ``window_us``
    every delta lands entirely inside window ``floor(t[i-1] /
    window_us)`` — the attribution is exact, not approximate, and the
    result matches a trace's half-open ``[m*w, (m+1)*w)`` counts
    window for window.
    """
    times = frame._times
    values = frame._columns[name]
    if len(times) < 2:
        return []
    horizon = times[-1]
    windows = [0.0] * max(1, int(-(-horizon // window_us)))
    for i in range(1, len(times)):
        delta = values[i] - values[i - 1]
        if delta == 0:
            continue
        index = int(times[i - 1] // window_us)
        if index >= len(windows):  # a trailing partial tick
            windows.extend([0.0] * (index + 1 - len(windows)))
        windows[index] += delta
    return windows


@dataclass(frozen=True)
class DipSummary:
    """Dip-and-recovery shape of a per-window goodput curve."""

    normal: float            # steady-state per-window rate
    dip_start_window: int    # first window strictly below normal
    dip_depth: float         # normal minus the worst window
    dip_floor: float         # the worst window's rate
    recover_window: int      # first window at/after the dip back at normal
    time_to_recover_us: float  # (recover - dip_start) * window width


def derive_dip(
    windows: Sequence[float], window_us: float, normal: float
) -> Optional[DipSummary]:
    """Locate the first dip below ``normal`` and its recovery.

    Returns None when no window drops below ``normal``. Trailing
    ramp-down windows (an experiment horizon cutting the last window
    short) do not count as a dip unless a recovery follows them.
    """
    dip_start = None
    for i, rate in enumerate(windows):
        if dip_start is None:
            if rate < normal:
                dip_start = i
        elif rate >= normal:
            floor = min(windows[dip_start:i])
            return DipSummary(
                normal=normal,
                dip_start_window=dip_start,
                dip_depth=normal - floor,
                dip_floor=floor,
                recover_window=i,
                time_to_recover_us=(i - dip_start) * window_us,
            )
    return None


# -- the sampler ----------------------------------------------------


class TimeSeriesSampler:
    """Samples registered probes on a fixed sim-time tick.

    Probes are zero-argument callables returning a number; they must
    only *read* model state. :meth:`attach` pre-schedules every tick up
    front — ``0, tick, 2*tick, ... <= until_us`` — which both keeps
    ``sim.run()`` convergent (no self-rescheduling tail) and guarantees
    the sampler's events out-rank any same-timestamp model event
    scheduled afterwards, i.e. samples see the strict ``[0, t)``
    prefix.
    """

    def __init__(self, observer=NULL_OBSERVER) -> None:
        self.observer = observer
        self.frame = SeriesFrame()
        self._probes: Dict[str, Callable[[], float]] = {}
        self._attached = False

    def add_probe(self, name: str, probe: Callable[[], float]) -> None:
        if self._attached:
            raise ValueError("cannot add probes after attach()")
        if name in self._probes:
            raise ValueError(f"duplicate probe {name!r}")
        self._probes[name] = probe

    def add_probes(self, probes: Mapping[str, Callable[[], float]]) -> None:
        for name, probe in probes.items():
            self.add_probe(name, probe)

    def attach(self, sim, interval_us: float, until_us: float) -> "TimeSeriesSampler":
        """Schedule every tick in ``[sim.now, until_us]`` on ``sim``."""
        if self._attached:
            raise ValueError("sampler is already attached")
        if interval_us <= 0:
            raise ValueError(f"tick must be positive, got {interval_us}")
        self._attached = True
        self.interval_us = interval_us
        k = 0
        start = sim.now
        while True:
            when = start + k * interval_us
            if when > until_us:
                break
            sim.schedule_at(when, self._tick, name="series-tick")
            k += 1
        self._sim = sim
        return self

    def _tick(self) -> None:
        now = self._sim.now
        sample = {name: float(probe()) for name, probe in self._probes.items()}
        self.frame.append(now, sample)
        observer = self.observer
        if observer.enabled:
            observer.event_at(now, "series", SAMPLE_EVENT, **sample)


# -- probe catalogs -------------------------------------------------
#
# Helpers binding the standard probes onto live components. Each
# returns an insertion-ordered mapping suitable for ``add_probes``.


def sim_probes(sim) -> Dict[str, Callable[[], float]]:
    """Event-queue depth and timer-wheel occupancy (distinct pending
    firing times — identical across heap and wheel implementations)."""
    queue = sim.queue
    return {
        "sim.queue_depth": lambda: float(len(queue)),
        "sim.wheel_occupancy": lambda: float(queue.distinct_times()),
    }


def router_probes(router) -> Dict[str, Callable[[], float]]:
    """In-flight gauge plus cumulative completions, total and per
    serving unit (``shard.N.completed`` / ``group.N.completed``, after
    the cluster's scope prefix)."""
    probes: Dict[str, Callable[[], float]] = {
        "router.in_flight": lambda: float(router.in_flight),
        "router.completed": lambda: float(router.completed),
    }
    by_shard = router.completed_by_shard  # bumped per completion
    prefix = router.cluster.scope_prefix
    for shard_id in range(len(by_shard)):
        probes[f"{prefix}.{shard_id}.completed"] = (
            lambda shard_id=shard_id: float(by_shard[shard_id]))
    return probes


def quorum_probes(groups) -> Dict[str, Callable[[], float]]:
    """Sloppy-hint backlog and cumulative anti-entropy repair keys,
    summed across ``groups``."""
    groups = list(groups)
    return {
        "quorum.hints_pending": lambda: float(
            sum(g.hints_pending for g in groups)),
        "quorum.repair_keys": lambda: float(
            sum(g.stats.repair_keys for g in groups)),
    }
