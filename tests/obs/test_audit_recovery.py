"""The recovery-span-tiles-downtime and alert-grounded auditor rules,
each exercised with deliberately broken synthetic traces."""

from hypothesis import given, settings, strategies as st

from repro.obs import TraceEvent
from repro.obs.alerts import DEFAULT_RULES, evaluate_alerts
from repro.obs.audit import TraceAuditor, audit_events
from repro.obs.trace import downtime_windows


def _rules(report):
    return sorted({violation.rule for violation in report.violations})


def _failover(scope="shard.2", crash=1_000.0, detect=500.0,
              restore=2_000.0, base_id=900):
    """One synthetic failover: crash, takeover span, and a recovery
    span whose detect+catchup children tile the downtime exactly."""
    component = f"{scope}.cluster"
    detected = crash + detect
    end = detected + restore
    return [
        TraceEvent(crash, component, "fault.crash", attrs={"node": "p"}),
        TraceEvent(detected, component, "takeover", kind="span",
                   dur_us=restore, attrs={"bytes_restored": 64}),
        TraceEvent(crash, component, "recovery.span", kind="span",
                   dur_us=end - crash,
                   attrs={"trace_id": base_id, "span_id": base_id + 1}),
        TraceEvent(crash, component, "recovery.phase", kind="span",
                   dur_us=detect,
                   attrs={"trace_id": base_id, "span_id": base_id + 2,
                          "parent_id": base_id + 1, "phase": "detect"}),
        TraceEvent(detected, component, "recovery.phase", kind="span",
                   dur_us=restore,
                   attrs={"trace_id": base_id, "span_id": base_id + 3,
                          "parent_id": base_id + 1, "phase": "catchup"}),
    ]


def _reattr(event, **changes):
    return TraceEvent(
        changes.pop("ts_us", event.ts_us), event.component, event.name,
        kind=event.kind, dur_us=changes.pop("dur_us", event.dur_us),
        attrs={**event.attrs, **changes},
    )


# -- the two pairings agree ---------------------------------------------------
#
# The auditor pairs crashes with takeovers online and on its own — it
# is the independent checker — while the SLO, the alerts and the
# timeline read ``downtime_windows``. Both rules below judge recovery
# roots and alerts against the auditor's windows, so "audit.ok" vouches
# for the SLO's windows only because the two pairings always agree.

_outage_events = st.lists(
    st.tuples(
        st.sampled_from(["fault.crash", "takeover"]),
        # Three scoped components and the unscoped pair.
        st.sampled_from(
            ["shard.0.cluster", "shard.1.cluster", "group.3.cluster", "cluster"]
        ),
        st.floats(0.0, 500.0, allow_nan=False),  # gap since the last event
        st.floats(0.0, 500.0, allow_nan=False),  # a takeover's duration
    ),
    max_size=24,
)


@given(_outage_events)
@settings(max_examples=200, deadline=None)
def test_auditor_downtime_windows_equal_the_shared_pairing(draws):
    # Any interleaving: a takeover with no crash on record, a crash
    # never closed, repeated and nested outages in one scope.
    events, now = [], 0.0
    for name, component, gap, dur in draws:
        now += gap
        if name == "takeover":
            events.append(TraceEvent(now, component, name, kind="span",
                                     dur_us=dur, attrs={"bytes_restored": 0}))
        else:
            events.append(TraceEvent(now, component, name, attrs={"node": "p"}))
    auditor = TraceAuditor()
    for event in events:
        auditor.feed(event)
    assert auditor._downtime == downtime_windows(events)


# -- recovery-span-tiles-downtime --------------------------------------------


def test_clean_recovery_trace_passes():
    assert audit_events(_failover()).ok


def test_rule_is_gated_on_recovery_spans_being_present():
    # Pre-recovery traces (crash + takeover, no spans) stay clean.
    legacy = [event for event in _failover()
              if not event.name.startswith("recovery.")]
    assert audit_events(legacy).ok


def test_phase_sum_mismatch_is_flagged():
    events = _failover()
    events[4] = _reattr(events[4], dur_us=events[4].dur_us - 300.0)
    report = audit_events(events)
    assert "recovery-span-tiles-downtime" in _rules(report)
    assert any("phase\nsum" in v.message or "phase sum" in v.message
               for v in report.violations)


def test_non_tiling_children_are_flagged():
    events = _failover()
    # Shift catchup 100us late: a hole opens after detect.
    events[4] = _reattr(events[4], ts_us=events[4].ts_us + 100.0,
                        dur_us=events[4].dur_us - 100.0)
    report = audit_events(events)
    assert "recovery-span-tiles-downtime" in _rules(report)
    assert any("must tile" in v.message for v in report.violations)


def test_unknown_phase_is_flagged():
    events = _failover()
    events[3] = _reattr(events[3], phase="reboot")
    report = audit_events(events)
    assert any("unknown recovery phase" in v.message
               for v in report.violations)


def test_orphan_phase_child_is_flagged():
    events = _failover()
    events.append(_reattr(events[4], parent_id=12_345, span_id=999))
    report = audit_events(events)
    assert any("unknown parent" in v.message for v in report.violations)


def test_downtime_window_without_recovery_span_is_flagged():
    # shard.2 recovers properly; shard.3's crash has no recovery span,
    # which the rule (armed by shard.2's spans) must flag.
    events = _failover() + [
        event for event in _failover(scope="shard.3", base_id=950)
        if not event.name.startswith("recovery.")
    ]
    report = audit_events(events)
    violation = next(v for v in report.violations
                     if "no\nmatching" in v.message
                     or "no matching" in v.message)
    assert violation.component == "shard.3"
    assert violation.attrs["window_end_us"] > violation.attrs["window_start_us"]


def test_recovery_span_without_downtime_window_is_flagged():
    events = _failover() + [
        event for event in _failover(scope="shard.3", base_id=950)
        if event.name.startswith("recovery.")
    ]
    report = audit_events(events)
    assert any("matches no downtime window" in v.message
               for v in report.violations)


def test_mismatched_root_bounds_are_flagged():
    events = _failover()
    # Root starts 200us after the crash: child tiling still holds but
    # the root no longer matches the downtime window.
    for index in (2, 3):
        events[index] = _reattr(events[index],
                                ts_us=events[index].ts_us + 200.0)
    events[3] = _reattr(events[3], dur_us=events[3].dur_us - 200.0)
    report = audit_events(events)
    assert "recovery-span-tiles-downtime" in _rules(report)


# -- alert-grounded ----------------------------------------------------------


def _alert_fire(ts, scope, rule=DEFAULT_RULES[0]):
    return TraceEvent(ts, "alerts", "alert.fire",
                      attrs={**rule.to_attrs(), "scope": scope})


def _alerting_base():
    """A 4.5 ms outage plus sampler ticks long enough for every
    default rule to fire *and* resolve."""
    ticks = [
        TraceEvent(float(ts), "series", "series.sample",
                   attrs={"goodput": 1})
        for ts in range(0, 21_000, 1_000)
    ]
    return _failover(restore=4_000.0) + ticks


def test_justified_alerts_pass():
    base = _alerting_base()
    alerts = evaluate_alerts(base)
    fires = [e for e in alerts if e.name == "alert.fire"]
    resolves = [e for e in alerts if e.name == "alert.resolve"]
    assert len(fires) == len(resolves) == len(DEFAULT_RULES)
    assert audit_events(base + alerts).ok


def test_rule_is_gated_on_alert_events_being_present():
    # Alert-worthy downtime with no recorded alerts: the rule stays
    # quiet (report-level verify_alerts covers un-annotated traces).
    assert audit_events(_alerting_base()).ok


def test_false_fire_is_flagged():
    base = _alerting_base()
    events = base + evaluate_alerts(base)
    events.append(_alert_fire(100.0, "shard.7"))
    report = audit_events(events)
    assert _rules(report) == ["alert-grounded"]
    assert any("not justified" in v.message.replace("\n", " ")
               for v in report.violations)


def test_missed_window_is_flagged():
    base = _alerting_base()
    alerts = evaluate_alerts(base)
    fires = [e for e in alerts if e.name == "alert.fire"]
    # Drop one fire; its rule survives in the matching resolve's attrs.
    events = base + [e for e in alerts if e is not fires[0]]
    report = audit_events(events)
    assert _rules(report) == ["alert-grounded"]
    assert any("missed window" in v.message for v in report.violations)
