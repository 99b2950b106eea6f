"""Exporter round-trips: JSONL and Chrome trace_event."""

import json

import pytest

from repro.obs import (
    Observer,
    TraceEvent,
    analyze_timeline,
    chrome_trace_dict,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)

EVENTS = [
    TraceEvent(0.0, "shard.0.router", "txn.submit", attrs={"key": 1}),
    TraceEvent(5.0, "shard.1.cluster", "fault.crash", attrs={"node": "p"}),
    TraceEvent(5.7, "shard.1.cluster", "takeover", kind="span", dur_us=9.3,
               attrs={"bytes_restored": 4096, "new_primary": "b"}),
    TraceEvent(20.0, "shard.0.router", "txn.complete",
               attrs={"shard": 0, "latency_us": 20.0}),
]


def test_jsonl_round_trip(tmp_path):
    observer = Observer(clock=lambda: 1.0)
    observer.count("router.routed", 3)
    observer.observe("router.latency_us", 42.0)
    path = write_jsonl(tmp_path / "t.jsonl", EVENTS, metrics=observer.registry)
    events, snapshot = read_jsonl(path)
    assert events == EVENTS
    assert snapshot == observer.registry.snapshot()


def test_jsonl_without_metrics(tmp_path):
    path = write_jsonl(tmp_path / "t.jsonl", EVENTS)
    events, snapshot = read_jsonl(path)
    assert events == EVENTS
    assert snapshot is None


def test_jsonl_rejects_garbage(tmp_path):
    bad_format = tmp_path / "bad.jsonl"
    bad_format.write_text('{"type":"meta","format":"not-a-trace"}\n')
    with pytest.raises(ValueError):
        read_jsonl(bad_format)
    bad_type = tmp_path / "worse.jsonl"
    bad_type.write_text('{"type":"mystery"}\n')
    with pytest.raises(ValueError):
        read_jsonl(bad_type)


def test_jsonl_is_line_stable(tmp_path):
    first = write_jsonl(tmp_path / "a.jsonl", EVENTS).read_text()
    second = write_jsonl(tmp_path / "b.jsonl", EVENTS).read_text()
    assert first == second
    for line in first.splitlines():
        json.loads(line)  # every line is standalone JSON


def test_chrome_trace_structure(tmp_path):
    trace = chrome_trace_dict(EVENTS)
    records = trace["traceEvents"]
    names = {r["args"]["name"] for r in records if r["ph"] == "M"}
    assert names == {"shard.0.router", "shard.1.cluster"}
    spans = [r for r in records if r["ph"] == "X"]
    assert len(spans) == 1
    assert spans[0]["dur"] == 9.3 and spans[0]["ts"] == 5.7
    instants = [r for r in records if r["ph"] == "i"]
    assert len(instants) == 3
    # Same component -> same thread lane.
    by_component = {r["args"]["name"]: r["tid"] for r in records
                    if r["ph"] == "M"}
    for record in spans + instants:
        assert record["tid"] == by_component[record["cat"]]
    path = write_chrome_trace(tmp_path / "t.json", EVENTS)
    assert json.loads(path.read_text()) == trace


@pytest.mark.parametrize("seed", [7, 1234])
def test_failover_trace_round_trips_through_disk(tmp_path, seed):
    """The satellite contract: dump a real failover trace to JSONL,
    reload it, and the report reproduces the same downtime and
    throughput numbers as the in-memory analysis."""
    from repro.experiments.extension_sharding import failover_timeline

    timeline = failover_timeline(
        num_shards=2,
        slots=12,
        crashes=((1, 5_250.0),),
        db_bytes_per_shard=4 * 1024 * 1024,
        seed=seed,
        trace_path=tmp_path / "failover.jsonl",
    )
    events, snapshot = read_jsonl(tmp_path / "failover.jsonl")
    assert events == timeline.trace_events
    assert snapshot is not None  # the metrics snapshot rode along

    live = analyze_timeline(timeline.trace_events, window_us=timeline.slot_us)
    reloaded = analyze_timeline(events, window_us=timeline.slot_us)
    assert reloaded.failovers == live.failovers
    assert reloaded.routing == live.routing
    assert reloaded.completions == live.completions
    assert reloaded.latency == live.latency
    assert reloaded.render() == live.render()
    span = reloaded.failovers[0]
    assert span.downtime_us == timeline.outage.downtime_us
    assert [
        reloaded.completions_between(s.start_us, s.start_us + timeline.slot_us)
        for s in timeline.samples[:12]
    ] == [s.completed for s in timeline.samples[:12]]
