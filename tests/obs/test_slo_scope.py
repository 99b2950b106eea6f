"""Per-scope SLO filtering, in the library and on the CLI."""

import json

import pytest

from repro.obs import TraceEvent, write_jsonl
from repro.obs.report import main as report_main
from repro.obs.slo import compute_slo
from repro.obs.trace import scope_selected


def _completion(ts, scope):
    return TraceEvent(ts, "router", "txn.complete", attrs={
        "key": 0, "shard": 0, "scope": scope, "attempts": 1,
        "latency_us": 10.0,
    })


def _window(scope, crash_at, restored_at):
    """A crash plus its takeover span, in the shared vocabulary."""
    component = f"{scope}.cluster" if scope else "cluster"
    return [
        TraceEvent(crash_at, component, "fault.crash",
                   attrs={"node": "n0", "reason": "test"}),
        TraceEvent(crash_at, component, "takeover", kind="span",
                   dur_us=restored_at - crash_at,
                   attrs={"bytes_restored": 0}),
    ]


def _events():
    events = [
        _completion(100.0, "group.0"),
        _completion(200.0, "group.1"),
        _completion(300.0, "shard.0"),
    ]
    events += _window("group.1", 1_000.0, 3_000.0)
    events += _window("shard.0", 2_000.0, 2_500.0)
    events.append(_completion(10_000.0, "group.0"))
    return events


def test_scope_selection_matches_exact_and_dotted_prefix():
    assert scope_selected("group.1", None)
    assert scope_selected("group.1", ["group.1"])
    assert scope_selected("group.1", ["group"])
    assert not scope_selected("group.1", ["group.10"])
    assert not scope_selected("shard.0", ["group"])
    # The anonymous scope reports under the label "cluster".
    assert scope_selected("", ["cluster"])


def test_compute_slo_reports_every_scope_without_a_filter():
    report = compute_slo(_events())
    assert [s.scope for s in report.scopes] == ["group.0", "group.1", "shard.0"]
    by_scope = {s.scope: s for s in report.scopes}
    assert by_scope["group.0"].downtime_us == 0.0
    assert by_scope["group.1"].downtime_us == 2_000.0
    assert by_scope["shard.0"].downtime_us == 500.0
    assert report.horizon_us == 10_000.0


def test_scope_filter_isolates_one_architecture():
    report = compute_slo(_events(), scopes=["group"])
    assert [s.scope for s in report.scopes] == ["group.0", "group.1"]
    # The cluster roll-up averages only the selected scopes.
    assert report.cluster_availability == pytest.approx(
        (1.0 + 0.8) / 2
    )
    only_shard = compute_slo(_events(), scopes=["shard.0"])
    assert [s.scope for s in only_shard.scopes] == ["shard.0"]


def test_filters_compose_and_can_select_nothing():
    both = compute_slo(_events(), scopes=["group.0", "shard.0"])
    assert [s.scope for s in both.scopes] == ["group.0", "shard.0"]
    empty = compute_slo(_events(), scopes=["nonexistent"])
    assert empty.scopes == []
    assert empty.cluster_availability == 1.0


def _write_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_jsonl(str(path), _events(), metrics=None)
    return str(path)


def test_cli_scope_filter_narrows_the_slo_section(tmp_path, capsys):
    path = _write_trace(tmp_path)
    assert report_main([path, "--slo", "--scope", "group.1",
                        "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    scopes = [s["scope"] for s in payload["slo"]["scopes"]]
    assert scopes == ["group.1"]


def test_cli_scope_is_repeatable(tmp_path, capsys):
    path = _write_trace(tmp_path)
    assert report_main([path, "--slo", "--scope", "group.0",
                        "--scope", "shard.0", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    scopes = [s["scope"] for s in payload["slo"]["scopes"]]
    assert scopes == ["group.0", "shard.0"]


def test_cli_scope_without_slo_is_an_error(tmp_path, capsys):
    path = _write_trace(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        report_main([path, "--scope", "group.0"])
    assert excinfo.value.code == 2
    assert "--scope requires --slo" in capsys.readouterr().err
