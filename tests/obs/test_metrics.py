"""The metrics registry: counters, gauges, histograms, namespace."""

import pytest

from repro.obs.metrics import (
    HISTOGRAM_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter_is_monotone():
    counter = Counter("c")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_counter_set_is_idempotent_bridge():
    counter = Counter("c")
    counter.set(10)
    counter.set(10)
    assert counter.value == 10


def test_gauge_is_last_write_wins():
    gauge = Gauge("g")
    gauge.set(5)
    gauge.set(3)
    assert gauge.value == 3


def test_histogram_buckets_and_summary():
    hist = Histogram("h")
    assert hist.bounds == HISTOGRAM_BOUNDS
    for value in (0.5, 1.0, 5.0, 50.0, 500_000.0):
        hist.observe(value)
    # bisect_left: 0.5 and 1.0 land in bucket 0 (<= 1.0 edge), 5.0 in
    # the 5.0 edge's bucket 2, 50.0 in bucket 5, 500,000 overflows.
    assert hist.bucket_counts == [2, 0, 1, 0, 0, 1] + [0] * 10 + [1]
    summary = hist.summary()
    assert summary["count"] == 5
    assert summary["min"] == 0.5
    assert summary["max"] == 500_000.0
    assert summary["mean"] == pytest.approx(100_011.3)
    # p99 of 5 observations is the last one — the overflow bucket
    # reports the exact max, not a bucket edge.
    assert summary["p99"] == 500_000.0


def test_histogram_quantile_reports_bucket_edges():
    hist = Histogram("h")
    for value in (0.5, 7.0, 7.0, 70.0):
        hist.observe(value)
    assert hist.quantile(0.0) == 1.0  # first observation's bucket edge
    assert hist.quantile(0.5) == 10.0
    assert hist.quantile(1.0) == 100.0
    # Overflow bucket reports the true max, not an edge.
    hist.observe(999_999.0)
    assert hist.quantile(1.0) == 999_999.0


def test_histogram_rejects_bad_bounds():
    # Its bucket bounds are fixed; what is left to reject is a quantile
    # outside [0, 1].
    with pytest.raises(ValueError):
        Histogram("h").quantile(1.5)


def test_empty_histogram_summary_is_zeroed():
    summary = Histogram("h").summary()
    assert summary["count"] == 0
    assert summary["mean"] == 0.0
    assert summary["p95"] == 0.0
    assert summary["p99"] == 0.0


def test_registry_creates_on_first_use():
    registry = MetricsRegistry()
    registry.counter("a.b").inc()
    assert registry.counter("a.b").value == 1
    registry.gauge("a.g").set(7)
    assert registry.value("a.b") == 1
    assert registry.value("a.g") == 7
    assert registry.value("missing") == 0.0
    assert len(registry) == 2


def test_registry_rejects_kind_collisions():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")
    with pytest.raises(ValueError):
        registry.histogram("x")


def test_snapshot_is_json_safe_and_stable():
    import json

    registry = MetricsRegistry()
    registry.counter("b").inc(2)
    registry.counter("a").inc(1)
    registry.gauge("g").set(3)
    registry.histogram("h").observe(12.0)
    snap = registry.snapshot()
    assert list(snap["counters"]) == ["a", "b"]
    assert snap["histograms"]["h"]["count"] == 1
    json.dumps(snap)  # must not raise

