"""Exporter round-trips: JSONL and Chrome trace_event."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
    observer = Observer()
    observer.bind_clock(lambda: 1.0)
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


@pytest.fixture(scope="module")
def recorded_trace(tmp_path_factory):
    from repro.experiments.extension_sharding import failover_timeline

    path = tmp_path_factory.mktemp("recorded") / "failover.jsonl"
    failover_timeline(
        num_shards=2, slots=12, crashes=((1, 5_250.0),), trace_path=path,
    )
    return path.read_bytes()


NEWLINE = b"\n"


def _report_exit(path, capsys, *flags):
    """The report CLI's exit status and stderr; anything but a clean
    return or argparse's ``SystemExit`` (a traceback) propagates."""
    from repro.obs.report import main

    try:
        status = main([str(path), *flags])
    except SystemExit as exit_:
        status = exit_.code
    return status, capsys.readouterr().err


def test_a_trace_cut_mid_line_is_a_one_line_error(recorded_trace, tmp_path, capsys):
    """Cut anywhere inside a line, the reader names ``path:line`` and
    the CLI exits 2 as it does for a missing file — never a traceback,
    never a PASS. Every other cut exits 2 as well."""
    path = tmp_path / "cut.jsonl"
    size = len(recorded_trace)
    offsets = [size * k // 23 for k in range(1, 23)] + [size // 2, size - 2]
    mid_line = 0
    for offset in offsets:
        kept = recorded_trace[:offset]
        path.write_bytes(kept)
        status, err = _report_exit(path, capsys, "--audit")
        assert status == 2, offset
        last = kept.rsplit(b"\n", 1)[-1]
        if last and not last.endswith(b"}"):
            mid_line += 1
            where = f":{kept.count(NEWLINE) + 1}: "
            assert f"{path}{where}" in err, err
            with pytest.raises(ValueError, match=where):
                read_jsonl(path)
    assert mid_line >= 20


def test_a_trace_cut_on_a_line_boundary_cannot_audit_pass(
        recorded_trace, tmp_path, capsys):
    """Cut after a whole line, what is left is valid JSONL that would
    read as a shorter run. The missing ``end`` record refuses it."""
    lines = recorded_trace.split(NEWLINE)
    path = tmp_path / "cut.jsonl"
    for keep in (1, 2, len(lines) // 2, len(lines) - 2):
        path.write_bytes(NEWLINE.join(lines[:keep]) + NEWLINE)
        status, err = _report_exit(path, capsys, "--audit", "--slo")
        assert status == 2, keep
        assert f"cannot read trace file: {path}: no end record after " \
            f"line {keep} (truncated file?)" in err, err


def test_the_end_record_counts_and_digests_what_precedes_it(
        recorded_trace, tmp_path):
    *body, end, tail = recorded_trace.split(NEWLINE)
    assert tail == b""
    record = json.loads(end)
    assert record["type"] == "end"
    assert record["events"] == sum(b'"type":"event"' in line for line in body)
    path = tmp_path / "bad-end.jsonl"
    for field, value in (("events", record["events"] + 1),
                         ("sha256", "0" * 64)):
        forged = json.dumps({**record, field: value}, sort_keys=True,
                            separators=(",", ":")).encode()
        path.write_bytes(NEWLINE.join(body + [forged, b""]))
        with pytest.raises(ValueError, match="end record .* does not match"):
            read_jsonl(path)
    path.write_bytes(recorded_trace + recorded_trace.split(NEWLINE, 1)[0] + NEWLINE)
    with pytest.raises(ValueError, match="data after the end record"):
        read_jsonl(path)


# One file and one capture serve every example: each overwrites the
# file and reads the capture out.
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_cut_or_flipped_byte_never_audits_pass(
        recorded_trace, tmp_path, capsys, data):
    """Cut the trace at any byte, or change any one byte: the report
    exits 2 with its one-line error, never a traceback and never 0."""
    size = len(recorded_trace)
    offset = data.draw(st.integers(0, size - 1), label="offset")
    if data.draw(st.booleans(), label="cut"):
        damaged = recorded_trace[:offset]
    else:
        flipped = bytearray(recorded_trace)
        flipped[offset] ^= data.draw(st.integers(1, 255), label="mask")
        damaged = bytes(flipped)
    path = tmp_path / "damaged.jsonl"
    path.write_bytes(damaged)
    status, err = _report_exit(path, capsys, "--audit", "--slo")
    assert status == 2, err
    assert "error: cannot read trace file: " in err.splitlines()[-1], err


@pytest.mark.parametrize("damage", [
    lambda line: line[: len(line) // 2],
    lambda line: b"[1, 2]",
    lambda line: line.replace(b'"ts_us":', b'"ts":'),
    lambda line: b"\xff\xfe" + line,
], ids=["half-a-line", "not-a-record", "field-missing", "not-utf8"])
def test_a_corrupted_middle_line_is_a_one_line_error(
        recorded_trace, tmp_path, capsys, damage):
    lines = recorded_trace.split(b"\n")
    middle = len(lines) // 2
    assert b'"type":"event"' in lines[middle]
    lines[middle] = damage(lines[middle])
    path = tmp_path / "corrupt.jsonl"
    path.write_bytes(b"\n".join(lines))
    status, err = _report_exit(path, capsys, "--audit", "--slo")
    assert status == 2
    assert "cannot read trace file" in err
    with pytest.raises(ValueError):
        read_jsonl(path)


def _series_bytes(_trace):
    """The meta line of the retired series file format."""
    return b'{"columns":["queue"],"format":"repro-series-v1","type":"meta"}\n'


@pytest.mark.parametrize("content, reason", [
    (lambda trace: b"", "missing repro-trace-v1 meta line"),
    (lambda trace: trace.split(b"\n", 1)[1], "missing repro-trace-v1 meta line"),
    (_series_bytes, "unknown trace format 'repro-series-v1'"),
], ids=["empty-file", "event-first", "series-as-trace"])
def test_a_file_that_is_not_a_trace_cannot_audit_pass(
        recorded_trace, tmp_path, capsys, content, reason):
    path = tmp_path / "not-a-trace.jsonl"
    path.write_bytes(content(recorded_trace))
    status, err = _report_exit(path, capsys, "--audit")
    assert status == 2
    assert f"cannot read trace file: {path}: {reason}" in err
    with pytest.raises(ValueError, match="meta line|trace format"):
        read_jsonl(path)
