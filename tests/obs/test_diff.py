"""Structural cross-run diffing: canonical ids, localization, CLI."""

import json

import pytest

from repro.obs import TraceEvent, write_jsonl
from repro.obs.diff import (
    canonicalize_events,
    diff_events,
    diff_files,
    diff_series,
)
from repro.obs.report import main
from repro.obs.series import SeriesFrame


def _event(ts, name="e", component="c", dur=0.0, **attrs):
    kind = "span" if dur else "instant"
    return TraceEvent(ts, component, name, kind=kind, dur_us=dur, attrs=attrs)


# -- canonicalization --------------------------------------------------------


def test_canonicalize_renumbers_by_first_appearance():
    events = [
        _event(1.0, trace_id=70, span_id=71),
        _event(2.0, trace_id=70, parent_id=71, span_id=75),
        _event(3.0, commit_trace_id=70),
    ]
    canon = canonicalize_events(events)
    assert canon[0].attrs == {"trace_id": 1, "span_id": 2}
    assert canon[1].attrs == {"trace_id": 1, "parent_id": 2, "span_id": 3}
    assert canon[2].attrs == {"commit_trace_id": 1}
    # Dense ids in allocation order are a fixed point.
    assert canonicalize_events(canon) == canon


def test_shifted_id_allocation_diffs_clean():
    base = [_event(1.0, trace_id=1, span_id=2), _event(2.0, trace_id=3)]
    shifted = [_event(1.0, trace_id=9, span_id=10), _event(2.0, trace_id=11)]
    assert diff_events(base, shifted).identical


# -- event diffs -------------------------------------------------------------


def test_self_diff_is_identical():
    events = [_event(float(i), x=i) for i in range(10)]
    diff = diff_events(events, events)
    assert diff.identical
    assert diff.first_divergence is None
    assert "IDENTICAL" in diff.render()


def test_field_level_divergence_is_localized():
    base = [_event(1.0), _event(2.0, x=1), _event(3.0)]
    current = [_event(1.0), _event(2.5, x=2), _event(3.0)]
    diff = diff_events(base, current)
    assert not diff.identical
    assert diff.first_divergence == 1
    fields = {d.field for d in diff.divergences}
    assert fields == {"ts_us", "attrs"}
    payload = diff.to_dict()
    assert payload["identical"] is False
    assert payload["divergences"][0]["index"] == 1


def test_added_and_removed_events_reported_as_presence():
    base = [_event(1.0), _event(2.0)]
    current = [_event(1.0)]
    diff = diff_events(base, current)
    assert diff.first_divergence == 1
    assert diff.divergences[-1].field == "presence"
    assert diff.divergences[-1].current == "(absent)"


def test_divergence_truncation():
    base = [_event(float(i), x=0) for i in range(50)]
    current = [_event(float(i), x=1) for i in range(50)]
    diff = diff_events(base, current, max_divergences=5)
    assert diff.truncated
    assert len(diff.divergences) == 5


def test_phase_deltas_cover_commit_and_recovery_vocabularies():
    def run(ship_us):
        return [
            TraceEvent(10.0, "c", "commit.span", kind="span", dur_us=ship_us,
                       attrs={"trace_id": 1, "span_id": 2}),
            TraceEvent(10.0, "c", "commit.phase", kind="span", dur_us=ship_us,
                       attrs={"trace_id": 1, "span_id": 3, "parent_id": 2,
                              "phase": "ship"}),
            TraceEvent(50.0, "shard.1.cluster", "recovery.span", kind="span",
                       dur_us=30.0, attrs={"trace_id": 4, "span_id": 5}),
            TraceEvent(50.0, "shard.1.cluster", "recovery.phase", kind="span",
                       dur_us=30.0, attrs={"trace_id": 4, "span_id": 6,
                                           "parent_id": 5, "phase": "detect"}),
        ]

    diff = diff_events(run(5.0), run(7.0))
    assert diff.phase_deltas["commit.ship"] == (5.0, 7.0)
    assert diff.phase_deltas["recovery.detect"] == (30.0, 30.0)
    assert "commit.ship" in diff.render()
    assert diff.to_dict()["phase_deltas_us"]["commit.ship"]["delta"] == 2.0


# -- series diffs ------------------------------------------------------------


def _frame(values):
    frame = SeriesFrame()
    for ts, value in values:
        frame.append(ts, {"goodput": value})
    return frame


def test_series_self_diff_and_divergence():
    frame = _frame([(0.0, 1.0), (100.0, 2.0)])
    assert diff_series(frame, frame).identical
    other = _frame([(0.0, 1.0), (100.0, 3.0)])
    diff = diff_series(frame, other)
    assert not diff.identical
    assert diff.divergences[0].field == "goodput"
    assert diff.divergences[0].index == 1


def test_series_column_mismatch_short_circuits():
    frame = _frame([(0.0, 1.0)])
    other = SeriesFrame()
    other.append(0.0, {"latency": 5.0})
    diff = diff_series(frame, other)
    assert diff.divergences[0].field == "columns"


# -- files and CLI -----------------------------------------------------------


def test_diff_files_sniffs_and_refuses_mixed_kinds(tmp_path):
    trace = tmp_path / "trace.jsonl"
    write_jsonl(trace, [_event(1.0, x=1)])
    series = tmp_path / "series.jsonl"
    _frame([(0.0, 1.0)]).write_jsonl(series)
    assert diff_files(str(trace), str(trace)).identical
    assert diff_files(str(series), str(series)).identical
    with pytest.raises(ValueError, match="cannot diff"):
        diff_files(str(series), str(trace))


def test_cli_exit_codes_and_json(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_jsonl(a, [_event(1.0, x=1)])
    write_jsonl(b, [_event(1.0, x=2)])
    assert main([str(a), "--diff", str(a)]) == 0
    assert "Trace diff: IDENTICAL" in capsys.readouterr().out
    assert main([str(b), "--diff", str(a), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)["diff"]
    assert payload["identical"] is False
