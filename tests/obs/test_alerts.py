"""The multi-window burn-rate alert engine and its verification."""

import pytest

from repro.obs import TraceEvent
from repro.obs.alerts import (
    ALERT_FIRE,
    ALERT_RESOLVE,
    BurnRateRule,
    DEFAULT_RULES,
    evaluate_alerts,
    fire_schedule,
    rules_from_events,
    sample_ticks,
    verify_alerts,
)
from repro.obs.trace import downtime_windows

PAGE = DEFAULT_RULES[0]


def _crash(ts, scope="shard.2"):
    return TraceEvent(ts, f"{scope}.cluster", "fault.crash",
                      attrs={"node": "p"})


def _takeover(ts, dur, scope="shard.2"):
    return TraceEvent(ts, f"{scope}.cluster", "takeover", kind="span",
                      dur_us=dur, attrs={})


def _tick(ts):
    return TraceEvent(ts, "series", "series.sample", attrs={"goodput": 1})


def test_rule_validation_and_burn_math():
    with pytest.raises(ValueError):
        BurnRateRule("r", 1.5, 10.0, 20.0, 1.0)
    with pytest.raises(ValueError):
        BurnRateRule("r", 0.99, 20.0, 10.0, 1.0)  # long < short
    with pytest.raises(ValueError):
        BurnRateRule("r", 0.99, 10.0, 20.0, 0.0)
    rule = BurnRateRule("r", 0.999, 1_000.0, 4_000.0, 10.0)
    assert rule.error_budget == pytest.approx(0.001)
    assert rule.burn(10.0, 1_000.0) == pytest.approx(10.0)
    assert BurnRateRule.from_attrs(rule.to_attrs()) == rule


def test_downtime_windows_pair_crash_with_takeover_end():
    events = [_crash(1_000.0), _takeover(1_500.0, 2_000.0)]
    assert downtime_windows(events) == {"shard.2": [(1_000.0, 3_500.0)]}
    # An unresolved crash stays an open window.
    assert downtime_windows([_crash(5.0)]) == {"shard.2": [(5.0, None)]}


def test_sample_ticks_prefer_the_sampler():
    with_sampler = [_tick(100.0), _tick(200.0), _crash(150.0)]
    assert sample_ticks(with_sampler) == [100.0, 200.0]
    without = [_crash(1_000.0), _takeover(1_500.0, 2_000.0)]
    assert sample_ticks(without) == [1_000.0, 1_500.0, 3_500.0]


def test_fire_and_resolve_lifecycle():
    # 3 ms outage, ticks every 1 ms: the page rule (2 ms/8 ms windows,
    # burn > 10x the 99.9% budget) fires during the outage and resolves
    # once the short window no longer overlaps it.
    windows = {"shard.2": [(2_000.0, 5_000.0)]}
    ticks = [float(t) for t in range(0, 16_000, 1_000)]
    schedule = fire_schedule(windows, ticks, rules=[PAGE])
    fires = [e for e in schedule if e.name == ALERT_FIRE]
    resolves = [e for e in schedule if e.name == ALERT_RESOLVE]
    assert len(fires) == 1 and len(resolves) == 1
    fire, resolve = fires[0], resolves[0]
    assert fire.ts_us == 3_000.0
    assert fire.attrs["scope"] == "shard.2"
    assert fire.attrs["rule"] == "page"
    assert fire.attrs["short_burn"] > PAGE.burn_threshold
    assert fire.attrs["long_burn"] > PAGE.burn_threshold
    # Short window is 2 ms: the first tick whose trailing window no
    # longer overlaps the outage (ended 5 ms) is 7 ms.
    assert resolve.ts_us == 7_000.0
    assert resolve.ts_us > fire.ts_us


def test_short_blip_does_not_page():
    # 15 us of downtime: the short window burns hot but the long
    # window stays under threshold, so the pair never fires.
    windows = {"shard.2": [(2_000.0, 2_015.0)]}
    ticks = [float(t) for t in range(0, 12_000, 500)]
    assert fire_schedule(windows, ticks, rules=[PAGE]) == []


def test_evaluate_alerts_is_idempotent():
    events = [
        _crash(2_000.0), _takeover(2_100.0, 2_900.0),
    ] + [_tick(float(t)) for t in range(0, 16_000, 500)]
    alerts = evaluate_alerts(events)
    assert alerts  # the 3 ms outage must alert
    again = evaluate_alerts(list(events) + alerts)
    assert again == alerts
    assert rules_from_events(alerts) == list(DEFAULT_RULES)


def test_verify_alerts_pass_false_fire_and_missed():
    base = [
        _crash(2_000.0), _takeover(2_100.0, 2_900.0),
    ] + [_tick(float(t)) for t in range(0, 16_000, 500)]
    alerts = evaluate_alerts(base)
    ok = verify_alerts(base + alerts)
    assert ok.ok and ok.recorded == ok.expected == len(alerts)

    bogus = TraceEvent(
        9_999.0, "alerts", ALERT_FIRE,
        attrs={**PAGE.to_attrs(), "scope": "shard.9"},
    )
    false_fire = verify_alerts(base + alerts + [bogus])
    assert not false_fire.ok
    assert any("shard.9" in item for item in false_fire.false_fires)

    missing = verify_alerts(base + alerts[1:])
    assert not missing.ok and missing.missed


def test_unannotated_trace_with_outage_reports_missed_windows():
    base = [
        _crash(2_000.0), _takeover(2_100.0, 2_900.0),
    ] + [_tick(float(t)) for t in range(0, 16_000, 500)]
    verification = verify_alerts(base)
    assert verification.recorded == 0
    assert not verification.ok and verification.missed
