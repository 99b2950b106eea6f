"""Timeline reconstruction and the report CLI."""

from hypothesis import given, settings, strategies as st

from repro.obs import TraceEvent, analyze_timeline, write_jsonl
from repro.obs.metrics import LatencySummary
from repro.obs.report import TimelineReport, main


def _failover_events():
    events = [
        TraceEvent(2_500.0, "shard.1.cluster", "fault.crash",
                   attrs={"node": "shard1/primary"}),
        TraceEvent(3_100.0, "shard.1.cluster", "takeover", kind="span",
                   dur_us=6_900.0, attrs={"bytes_restored": 2_070_000}),
    ]
    # Two completions per 1000 us window on shard 0, none on shard 1
    # during its outage.
    for window in range(12):
        ts = window * 1_000.0 + 100.0
        events.append(TraceEvent(ts, "router", "txn.submit",
                                 attrs={"key": 0, "shard": 0}))
        events.append(TraceEvent(ts + 50.0, "router", "txn.complete",
                                 attrs={"shard": 0, "latency_us": 50.0}))
    events.append(TraceEvent(2_600.0, "router", "txn.retry",
                             attrs={"shard": 1, "attempt": 1}))
    events.append(TraceEvent(2_600.0, "router", "txn.redirect",
                             attrs={"shard": 1, "stale_epoch": 1}))
    events.append(TraceEvent(11_000.0, "router", "txn.drop",
                             attrs={"shard": 1, "attempts": 12}))
    return events


def test_analyze_timeline_reconstructs_failover():
    report = analyze_timeline(_failover_events(), window_us=1_000.0)
    assert len(report.failovers) == 1
    span = report.failovers[0]
    assert span.scope == "shard.1"
    assert span.shard_id == 1
    assert span.crashed_node == "shard1/primary"
    assert span.crash_at_us == 2_500.0
    assert span.detection_us == 600.0
    assert span.takeover_us == 6_900.0
    assert span.downtime_us == 7_500.0
    assert span.restored_at_us == 10_000.0
    assert report.routing == {
        "routed": 12, "completed": 12, "retries": 1,
        "redirects": 1, "dropped": 1,
    }
    assert report.per_shard_completions == {0: 12}
    assert report.latency.count == 12
    assert report.latency.p50_us == 50.0
    assert report.window_counts(12) == [1] * 12
    assert report.horizon_windows() == 12


# Timestamps and window edges drawn from one coarse grid, so edges tie
# with completions all the time; the trace order is whatever it is.
_grid = st.integers(min_value=0, max_value=24).map(lambda k: k * 250.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_grid, max_size=60),
    st.lists(st.tuples(_grid, _grid | st.just(float("inf"))), max_size=12),
    st.sampled_from([250.0, 500.0, 1_000.0, 750.0]),
)
def test_window_counts_match_the_linear_scan(completions, windows, window_us):
    """``completions_between`` bisects a sorted copy; the definition it
    must keep is the half-open scan: ``start <= ts < stop``."""
    report = TimelineReport(
        window_us=window_us, completions=list(completions), failovers=[],
        routing={}, latency=LatencySummary(),
    )

    def scan(start_us, stop_us):
        return sum(1 for ts in completions if start_us <= ts < stop_us)

    for start_us, stop_us in windows:
        assert report.completions_between(start_us, stop_us) == scan(
            start_us, stop_us
        )
    horizon = report.horizon_windows()
    assert report.window_counts(horizon) == [
        scan(i * window_us, (i + 1) * window_us) for i in range(horizon)
    ]
    assert sum(report.window_counts(horizon)) == len(completions)
    assert report.completions == list(completions)  # trace order kept


def test_takeover_without_crash_event_still_reports():
    events = [
        TraceEvent(5.0, "cluster", "takeover", kind="span", dur_us=10.0),
    ]
    report = analyze_timeline(events)
    span = report.failovers[0]
    assert span.scope == ""  # an unsharded pair
    assert span.shard_id is None
    assert span.crashed_node == "?"
    assert span.crash_at_us == 5.0  # falls back to detection time
    assert span.bytes_restored == 0


def test_render_marks_crash_and_recovery():
    text = analyze_timeline(_failover_events(), window_us=1_000.0).render()
    assert "shard 1: crash of 'shard1/primary' at 2.50 ms" in text
    assert "detected +600 us" in text
    assert "downtime 7.50 ms" in text
    assert "<- crash" in text
    assert "<- restored" in text
    assert "12 routed" in text
    assert "latency: mean 50 us" in text
    assert "completions by shard: shard 0: 12" in text


def test_render_without_failovers():
    events = [TraceEvent(10.0, "router", "txn.complete",
                         attrs={"shard": 0, "latency_us": 10.0})]
    text = analyze_timeline(events).render()
    assert "no failover events in this trace" in text


def test_latency_summary_percentiles_are_exact():
    summary = LatencySummary.from_values(list(range(1, 101)))
    assert summary.p50_us == 50
    assert summary.p95_us == 95
    assert summary.max_us == 100
    assert LatencySummary.from_values([]) == LatencySummary()


def test_cli_renders_and_converts(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    write_jsonl(trace, _failover_events())
    chrome = tmp_path / "t.chrome.json"
    assert main([str(trace), "--window-us", "1000",
                 "--chrome-trace", str(chrome)]) == 0
    out = capsys.readouterr().out
    assert "Failover timeline" in out
    assert "downtime 7.50 ms" in out
    assert chrome.exists()
    assert "chrome trace written" in out


def test_cli_module_entrypoint(tmp_path):
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    trace = tmp_path / "t.jsonl"
    write_jsonl(trace, _failover_events())
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs.report", str(trace)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Failover timeline" in proc.stdout


def test_latency_summary_p99_and_to_dict():
    summary = LatencySummary.from_values(list(range(1, 101)))
    assert summary.p99_us == 99
    payload = summary.to_dict()
    assert payload["p99_us"] == 99
    assert payload["count"] == 100


def test_timeline_to_dict_shape():
    report = analyze_timeline(_failover_events(), window_us=1_000.0)
    payload = report.to_dict()
    assert payload["completions"] == 12
    assert payload["failovers"][0]["shard"] == 1
    assert payload["failovers"][0]["downtime_us"] == 7_500.0
    assert payload["routing"]["retries"] == 1
    assert payload["latency_us"]["p50_us"] == 50.0
    assert payload["per_shard_completions"] == {"0": 12}
    assert payload["window_counts"] == [1] * 12


def test_cli_audit_slo_spans_text(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    write_jsonl(trace, _failover_events())
    assert main([str(trace), "--audit", "--slo"]) == 0
    out = capsys.readouterr().out
    assert "Trace audit: PASS" in out
    assert "Availability" in out
    assert "serving windows confirmed" in out


def test_cli_audit_fails_on_violations(tmp_path, capsys):
    events = _failover_events()
    # A completion on the crashed shard inside its downtime window.
    events.append(TraceEvent(3_000.0, "router", "txn.complete",
                             attrs={"shard": 1, "latency_us": 5.0}))
    trace = tmp_path / "bad.jsonl"
    write_jsonl(trace, events)
    assert main([str(trace), "--audit"]) == 1
    out = capsys.readouterr().out
    assert "downtime-completion" in out
    # Without --audit the same trace renders fine and exits 0.
    assert main([str(trace)]) == 0


def test_cli_json_format_sections(tmp_path, capsys):
    import json

    trace = tmp_path / "t.jsonl"
    write_jsonl(trace, _failover_events())
    assert main([str(trace), "--audit", "--slo", "--spans",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"timeline", "audit", "slo", "attribution"}
    assert payload["audit"]["ok"] is True
    assert payload["slo"]["audit_ok"] is True
    assert payload["timeline"]["routing"]["completed"] == 12
    assert payload["attribution"]["commits"] == 0
    # The crashed shard's availability reflects its 7.5 ms outage.
    scopes = {s["scope"]: s for s in payload["slo"]["scopes"]}
    assert scopes["shard.1"]["downtime_us"] == 7_500.0


def test_cli_json_without_sections_is_timeline_only(tmp_path, capsys):
    import json

    trace = tmp_path / "t.jsonl"
    write_jsonl(trace, _failover_events())
    assert main([str(trace), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"timeline"}


def _events_with_series():
    events = _failover_events()
    for tick in range(3):
        events.append(TraceEvent(
            tick * 1_000.0, "series", "series.sample",
            attrs={"router.completed": float(tick * 2), "queue": 1.0},
        ))
    return sorted(events, key=lambda e: e.ts_us)


def test_cli_series_from_trace(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    write_jsonl(str(trace), _events_with_series())
    assert main([str(trace), "--series"]) == 0
    out = capsys.readouterr().out
    assert "series: 3 samples" in out
    assert "router.completed" in out

    import json

    assert main([str(trace), "--series", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"timeline", "series"}
    assert payload["series"]["columns"] == ["queue", "router.completed"]


def test_cli_output_writes_file_and_keeps_exit_code(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    write_jsonl(str(trace), _failover_events())
    target = tmp_path / "deep" / "dir" / "report.txt"
    assert main([str(trace), str("--output"), str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert "failover timeline" in target.read_text() or target.read_text()

    # Audit violations still fail the exit code when writing to a file.
    events = _failover_events()
    events.append(TraceEvent(3_000.0, "router", "txn.complete",
                             attrs={"shard": 1, "latency_us": 5.0}))
    bad = tmp_path / "bad.jsonl"
    write_jsonl(str(bad), events)
    bad_target = tmp_path / "bad.txt"
    assert main([str(bad), "--audit", "--output", str(bad_target)]) == 1
    assert "downtime-completion" in bad_target.read_text()
