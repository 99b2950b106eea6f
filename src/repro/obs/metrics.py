"""A simulated-time-aware metrics registry.

Every metric lives in one flat namespace of hierarchical dot-joined
names (``shard.0.router.retries``), so a report can select families
with a simple prefix match instead of knowing which component owns
which Python object. Three metric kinds cover the stack:

* :class:`Counter` — monotone totals (packets, retries, heartbeats).
* :class:`Gauge` — last-written level (queue depth, pointer lag).
* :class:`Histogram` — bucketed distributions (commit latency); the
  bucket bounds are fixed at creation so two snapshots of the same
  histogram are always comparable.

The registry records *numbers only* — it never touches model state —
which is what lets an attached observer be provably zero-impact on
the simulation (the default-off contract of :mod:`repro.obs`).
"""

from __future__ import annotations

import bisect
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Every histogram's bucket bounds: ~log2-spaced microsecond latency
#: buckets spanning one write-buffer drain to a whole mirror restore.
HISTOGRAM_BOUNDS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0, 100_000.0,
)


@dataclass
class Counter:
    """A monotone total."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def set(self, value: float) -> None:
        """Overwrite with an externally accumulated total (used by the
        :meth:`~repro.vista.stats.EngineCounters.snapshot_into` bridge,
        which folds an engine's own tallies in idempotently)."""
        self.value = value


@dataclass
class Gauge:
    """A last-write-wins level."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Bucketed distribution with count/sum/min/max sidecars.

    :data:`HISTOGRAM_BOUNDS` are the inclusive upper edges of the finite
    buckets; one implicit overflow bucket catches everything above the
    last edge.
    """

    def __init__(self, name: str):
        self.name = name
        self.bounds: Tuple[float, ...] = HISTOGRAM_BOUNDS
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper edge of the bucket holding
        the q-th observation (the overflow bucket reports the max)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        target = max(1, int(q * self.count + 0.5))
        seen = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            seen += bucket_count
            if seen >= target:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max if self.max is not None else 0.0
        return self.max if self.max is not None else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile of an already-sorted, non-empty
    sequence."""
    rank = max(1, int(q * len(ordered) + 0.5))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class LatencySummary:
    """Exact distribution summary of a list of durations — what the
    reports compute offline, where :class:`Histogram` buckets online."""

    count: int = 0
    mean_us: float = 0.0
    p50_us: float = 0.0
    p95_us: float = 0.0
    p99_us: float = 0.0
    max_us: float = 0.0

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatencySummary":
        if not values:
            return cls()
        ordered = sorted(values)
        return cls(
            count=len(ordered),
            mean_us=sum(ordered) / len(ordered),
            p50_us=_percentile(ordered, 0.50),
            p95_us=_percentile(ordered, 0.95),
            p99_us=_percentile(ordered, 0.99),
            max_us=ordered[-1],
        )

    def to_dict(self) -> Dict[str, float]:
        return asdict(self)


class MetricsRegistry:
    """One namespace of counters, gauges and histograms.

    Metrics are created on first use and looked up by exact name; a
    name may hold only one kind (asking for ``counter`` where a gauge
    lives raises).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- creation / lookup ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_kind(name, "counter", self._counters)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_kind(name, "gauge", self._gauges)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_kind(name, "histogram", self._histograms)
            metric = self._histograms[name] = Histogram(name)
        return metric

    def _check_kind(self, name: str, kind: str, own: Dict) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if table is not own and name in table:
                raise ValueError(
                    f"metric {name!r} already exists as a {other_kind}, "
                    f"requested as a {kind}"
                )

    # -- reading -------------------------------------------------------------

    def value(self, name: str) -> float:
        """The scalar value of a counter or gauge, 0.0 for neither
        (histograms have no single value; use :meth:`histogram`)."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        return 0.0

    def snapshot(self) -> Dict[str, Dict]:
        """A JSON-serializable dump of every metric, stable-ordered."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: {
                    "bounds": list(hist.bounds),
                    "bucket_counts": list(hist.bucket_counts),
                    **hist.summary(),
                }
                for name, hist in sorted(self._histograms.items())
            },
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms)"
        )
