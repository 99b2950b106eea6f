"""The span-forest joiner and the downtime decomposition."""

import pytest

from repro.obs import Observer, TraceEvent
from repro.obs.critpath import decompose_recoveries
from repro.obs.recovery import (
    PHASE_CATCHUP,
    PHASE_DETECT,
    RECOVERY_RESUME,
    RecoverySpanRecorder,
)
from repro.obs.spans import collect_span_forest


def _span(ts, dur, name="span", **attrs):
    return TraceEvent(ts, "c", name, kind="span", dur_us=dur, attrs=attrs)


def test_collect_span_forest_resolves_parents_and_filters():
    events = [
        _span(0.0, 10.0, name="a.span", trace_id=1, span_id=1),
        _span(0.0, 4.0, name="a.phase", trace_id=1, span_id=2, parent_id=1),
        _span(0.0, 3.0, name="b.span", trace_id=2, span_id=3, parent_id=99),
        TraceEvent(1.0, "c", "instant", attrs={"span_id": 4}),
    ]
    roots = collect_span_forest(events)
    assert [r.span_id for r in roots] == [1, 3]  # orphan 3 becomes a root
    assert [c.span_id for c in roots[0].children] == [2]
    only_a = collect_span_forest(events, names=("a.span", "a.phase"))
    assert [r.span_id for r in only_a] == [1]


# -- the decomposition over recorded recoveries ------------------------------


def _record_failover(observer, scope, crash, detect, restore, resume=None):
    recorder = RecoverySpanRecorder(observer, f"{scope}.cluster")
    detected = crash + detect
    recorder.phase(PHASE_DETECT, crash, detected)
    recorder.phase(PHASE_CATCHUP, detected, detected + restore)
    link = recorder.finish(node=f"{scope}/backup")
    if resume is not None:
        observer.event_at(
            detected + restore + resume, "router", RECOVERY_RESUME,
            trace_id=link.trace_id, parent_id=link.span_id,
        )
    return link


def test_decompose_recoveries_per_scope_tables():
    observer = Observer()
    _record_failover(observer, "shard.2", 1_000.0, 500.0, 4_500.0, resume=250.0)
    _record_failover(observer, "shard.2", 20_000.0, 500.0, 1_500.0)
    _record_failover(observer, "group.1", 5_000.0, 0.0, 3_000.0)

    decomposition = decompose_recoveries(observer.recorder.events)
    assert decomposition.recoveries == 3
    assert [s.label for s in decomposition.scopes] == ["group.1", "shard.2"]

    shard = decomposition.scope("shard.2")
    assert shard.recoveries == 2
    assert shard.total_downtime_us == 7_000.0
    assert shard.dominant_phase == PHASE_CATCHUP
    assert shard.share(PHASE_CATCHUP) == pytest.approx(6_000.0 / 7_000.0)
    assert shard.resume_gaps == 1
    assert shard.latency["recovery"].mean_us == pytest.approx(3_500.0)
    assert shard.latency["resume"].mean_us == pytest.approx(250.0)

    rendered = decomposition.render()
    assert "shard.2" in rendered and "dominant phase: catchup" in rendered
    payload = decomposition.to_dict()
    assert payload["recoveries"] == 3
    assert payload["scopes"][1]["phase_shares"][PHASE_CATCHUP] > 0.8


def test_decompose_recoveries_scope_filter():
    observer = Observer()
    _record_failover(observer, "shard.2", 0.0, 10.0, 90.0)
    _record_failover(observer, "group.1", 0.0, 0.0, 50.0)
    only_groups = decompose_recoveries(
        observer.recorder.events, scopes=["group"]
    )
    assert [s.label for s in only_groups.scopes] == ["group.1"]
    with pytest.raises(KeyError):
        only_groups.scope("shard.2")
