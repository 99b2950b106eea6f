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
  float column per probe) with JSONL/CSV export, reconstruction from
  ``series.sample`` trace events, and an ASCII sparkline renderer.
* :func:`windowed_goodput` / :func:`derive_dip` turn a cumulative
  counter column into per-window rates and a dip-and-recovery summary
  (depth, duration, time to recover).

The zero-cost discipline holds: the sampler only *reads* model state,
never mutates it, and its tick events advance the clock to instants the
run would reach anyway (multiples of the tick inside the horizon), so
measured outputs are byte-identical with the sampler attached at any
tick — a property CI checks by re-running tier 1 under
``REPRO_SERIES``.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.export import jsonl_records, stable_json
from repro.obs.observer import resolve_observer
from repro.obs.trace import TraceEvent

SERIES_FORMAT = "repro-series-v1"

#: Environment override for the experiment sampling tick (microseconds).
#: Setting it proves sampling-frequency invariance: measured outputs
#: must stay byte-identical at any tick that divides the slot width.
SERIES_ENV_VAR = "REPRO_SERIES"

#: Trace vocabulary: one instant event per tick, all probe values in attrs.
SAMPLE_EVENT = "series.sample"

_SPARK_RAMP = " .:-=+*#%@"


def is_series_file(path: str) -> bool:
    """Whether ``path``'s meta line declares :data:`SERIES_FORMAT` (as
    opposed to a ``repro-trace-v1`` trace)."""
    with open(path, "r", encoding="utf-8") as fh:
        return f'"{SERIES_FORMAT}"' in fh.readline()


class SeriesFrame:
    """Columnar time series: one shared time axis, one column per probe.

    Append-only and column-stable: the first :meth:`append` fixes the
    column set, later appends must supply exactly the same names.
    """

    def __init__(self, columns: Optional[Sequence[str]] = None) -> None:
        self._times: List[float] = []
        self._columns: Dict[str, List[float]] = (
            {name: [] for name in columns} if columns else {}
        )

    def __len__(self) -> int:
        return len(self._times)

    def __bool__(self) -> bool:
        return bool(self._times)

    @property
    def names(self) -> List[str]:
        """Column names in registration order."""
        return list(self._columns)

    @property
    def times_us(self) -> List[float]:
        return list(self._times)

    def values(self, name: str) -> List[float]:
        """The value column for ``name``."""
        return list(self._columns[name])

    def series(self, name: str) -> Tuple[List[float], List[float]]:
        """``(times_us, values)`` arrays for one probe."""
        return self.times_us, self.values(name)

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

    # -- export ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        # Columns are serialized in sorted order so the encoding is
        # canonical: a frame rebuilt from trace events (whose attrs are
        # sort_keys-serialized) produces the same bytes as the sampler's
        # own frame.
        return {
            "format": SERIES_FORMAT,
            "columns": sorted(self._columns),
            "times_us": self.times_us,
            "values": {name: list(self._columns[name])
                       for name in sorted(self._columns)},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SeriesFrame":
        if payload.get("format") != SERIES_FORMAT:
            raise ValueError(f"not a {SERIES_FORMAT} payload")
        columns = list(payload["columns"])  # type: ignore[arg-type]
        frame = cls(columns)
        times = payload["times_us"]
        values = payload["values"]
        for i, ts in enumerate(times):  # type: ignore[arg-type]
            frame.append(ts, {name: values[name][i] for name in columns})  # type: ignore[index]
        return frame

    def to_jsonl(self) -> str:
        """Serialize as ``repro-series-v1`` JSONL (meta line + one line
        per sample, values in column order)."""
        out = io.StringIO()
        names = sorted(self._columns)
        out.write(stable_json({
            "type": "meta",
            "format": SERIES_FORMAT,
            "columns": names,
            "samples": len(self),
        }) + "\n")
        columns = [self._columns[name] for name in names]
        for i, ts in enumerate(self._times):
            out.write(stable_json({
                "type": "sample",
                "ts_us": ts,
                "values": [col[i] for col in columns],
            }) + "\n")
        return out.getvalue()

    def to_bytes(self) -> bytes:
        """Canonical byte encoding — the byte-identity test currency."""
        return self.to_jsonl().encode("utf-8")

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    @classmethod
    def read_jsonl(cls, path: str) -> "SeriesFrame":
        records = jsonl_records(path)
        _, meta = next(records, (0, {}))
        if meta.get("type") != "meta":
            raise ValueError(f"{path}: missing {SERIES_FORMAT} meta line")
        if meta.get("format") != SERIES_FORMAT:
            raise ValueError(f"{path}: not a {SERIES_FORMAT} file")
        columns = list(meta["columns"])
        frame = cls(columns)
        for line_number, line in records:
            if line.get("type") != "sample":
                continue
            try:
                frame.append(line["ts_us"],
                             dict(zip(columns, line["values"])))
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(
                    f"{path}:{line_number}: malformed sample record: {error!r}"
                ) from None
        return frame

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            names = sorted(self._columns)
            fh.write(",".join(["time_us"] + names) + "\n")
            columns = [self._columns[name] for name in names]
            for i, ts in enumerate(self._times):
                row = [repr(ts)] + [repr(col[i]) for col in columns]
                fh.write(",".join(row) + "\n")

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

    def render(self, width: int = 64) -> str:
        """ASCII sparkline table: one row per column, bucketed to at
        most ``width`` characters, with min/max/last annotations."""
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
            spark = _sparkline(column, width, lo, hi)
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

    @property
    def outage_windows(self) -> int:
        return self.recover_window - self.dip_start_window


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


# -- tick selection -------------------------------------------------


def snap_tick(requested_us: float, window_us: float) -> float:
    """Largest tick <= ``requested_us`` that divides ``window_us`` into
    an integer number of *exactly representable* steps.

    Exactness matters: tick multiples must land on window boundaries in
    float arithmetic or the half-open attribution in
    :func:`windowed_goodput` stops matching the trace. A step is
    accepted when ``step * 8`` is an integer (multiples of 1/8 are
    exact binary floats, and so are all their small-integer multiples).
    """
    if requested_us <= 0:
        raise ValueError(f"tick must be positive, got {requested_us}")
    if requested_us >= window_us:
        return window_us
    parts = int(window_us // requested_us)
    limit = max(int(window_us * 8), parts + 1)
    while parts <= limit:
        step = window_us / parts
        if step <= requested_us and step * parts == window_us \
                and float(step * 8).is_integer():
            return step
        parts += 1
    raise ValueError(
        f"no exact tick <= {requested_us} dividing window {window_us}"
    )


def series_interval_us(default_us: float, window_us: float) -> float:
    """The sampling tick an experiment should use.

    ``REPRO_SERIES=<microseconds>`` overrides the default (snapped to
    an exact divisor of the window); measured outputs must not change
    — that invariance is what the CI leg running tier 1 under
    ``REPRO_SERIES`` proves. ``REPRO_SERIES=1`` (or any value that is
    not a number) selects a 5x finer tick than the default.
    """
    raw = os.environ.get(SERIES_ENV_VAR)
    if raw is None or raw == "" or raw == "0":
        return snap_tick(default_us, window_us)
    try:
        requested = float(raw)
    except ValueError:
        requested = default_us / 5.0
    if requested <= 1.0:  # "1" is the boolean spelling of "on, finer"
        requested = default_us / 5.0
    return snap_tick(requested, window_us)


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

    def __init__(self, observer=None, component: str = "series") -> None:
        self.observer = resolve_observer(observer)
        self.component = component
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
            observer.event_at(now, self.component, SAMPLE_EVENT, **sample)


# -- probe catalogs -------------------------------------------------
#
# Helpers binding the standard probes onto live components. Each
# returns an insertion-ordered mapping suitable for ``add_probes``.


def sim_probes(sim, prefix: str = "sim") -> Dict[str, Callable[[], float]]:
    """Event-queue depth and timer-wheel occupancy (distinct pending
    firing times — identical across heap and wheel implementations)."""
    queue = sim.queue
    return {
        f"{prefix}.queue_depth": lambda: float(len(queue)),
        f"{prefix}.wheel_occupancy": lambda: float(queue.distinct_times()),
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
