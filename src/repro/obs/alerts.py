"""Sim-time multi-window burn-rate alerting over recorded traces.

The SRE playbook's paging rule, transplanted onto the simulator's
clock: an alert fires when the error-budget *burn rate* — downtime in
a trailing window divided by the budget that window is allowed to
spend — exceeds a threshold in **both** a short and a long trailing
window. The short window makes the alert fast, the long window keeps
one blip from paging, and evaluating on the recorded
``series.sample`` ticks keeps everything deterministic: the engine is
a pure function of the trace, so re-running it reproduces the same
``alert.fire`` / ``alert.resolve`` events byte for byte.

The engine runs *post-hoc*: experiments evaluate the recorded events
after the run and append the alert instants (whose timestamps lie in
the past, at the ticks where the rule tripped) to the trace before
writing it. Appending keeps the measured event stream untouched —
every consumer selects by name, none by position — while the auditor's
``alert-grounded`` rule replays the same evaluation from the trace's
own downtime windows and flags any fire the windows do not justify
(false fires) and any justified fire that is missing (missed windows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.series import SAMPLE_EVENT
from repro.obs.trace import TraceEvent, Window, downtime_windows

#: Trace vocabulary: one instant when a rule starts/stops firing.
ALERT_FIRE = "alert.fire"
ALERT_RESOLVE = "alert.resolve"
#: Component the alert instants are recorded under.
ALERT_COMPONENT = "alerts"


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate SLO rule.

    Fires for a scope when the downtime share of both the short and the
    long trailing window exceeds ``burn_threshold`` times the error
    budget (``1 - objective``); resolves when the short window clears.
    """

    name: str
    objective: float
    short_window_us: float
    long_window_us: float
    burn_threshold: float

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {self.objective}")
        if self.short_window_us <= 0 or self.long_window_us <= 0:
            raise ValueError("alert windows must be positive")
        if self.long_window_us < self.short_window_us:
            raise ValueError("long window must be >= short window")
        if self.burn_threshold <= 0:
            raise ValueError("burn threshold must be positive")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective

    def burn(self, downtime_us: float, window_us: float) -> float:
        return downtime_us / (window_us * self.error_budget)

    def to_attrs(self) -> Dict[str, object]:
        return {
            "rule": self.name,
            "objective": self.objective,
            "short_window_us": self.short_window_us,
            "long_window_us": self.long_window_us,
            "burn_threshold": self.burn_threshold,
        }

    @classmethod
    def from_attrs(cls, attrs: Mapping[str, object]) -> "BurnRateRule":
        return cls(
            name=str(attrs["rule"]),
            objective=float(attrs["objective"]),
            short_window_us=float(attrs["short_window_us"]),
            long_window_us=float(attrs["long_window_us"]),
            burn_threshold=float(attrs["burn_threshold"]),
        )


#: The default rule set, sized to the experiments' millisecond-scale
#: outages: "page" is the fast-burn pair (an outage must eat 10x the
#: 99.9% budget of both windows), "ticket" the slow-burn pair.
DEFAULT_RULES: Tuple[BurnRateRule, ...] = (
    BurnRateRule(
        name="page", objective=0.999,
        short_window_us=2_000.0, long_window_us=8_000.0,
        burn_threshold=10.0,
    ),
    BurnRateRule(
        name="ticket", objective=0.99,
        short_window_us=5_000.0, long_window_us=20_000.0,
        burn_threshold=2.0,
    ),
)

def sample_ticks(events: Iterable[TraceEvent]) -> List[float]:
    """The evaluation instants: the trace's ``series.sample`` ticks, or
    — for traces without a sampler — the downtime window edges."""
    ticks, edges = set(), set()
    for event in events:
        if event.name == SAMPLE_EVENT:
            ticks.add(event.ts_us)
        elif event.name == "fault.crash":
            edges.add(event.ts_us)
        elif event.name == "takeover":
            edges.update((event.ts_us, event.end_us))
    return sorted(ticks or edges)


def _window_downtime(
    windows: Sequence[Window], start_us: float, end_us: float
) -> float:
    """Downtime overlapping ``(start_us, end_us]``; open windows count
    up to ``end_us`` (the outage is still burning at that instant)."""
    total = 0.0
    for window_start, window_end in windows:
        closed_end = end_us if window_end is None else min(window_end, end_us)
        total += max(0.0, closed_end - max(window_start, start_us))
    return total


def fire_schedule(
    windows_by_scope: Mapping[str, Sequence[Window]],
    ticks: Sequence[float],
    rules: Sequence[BurnRateRule] = DEFAULT_RULES,
) -> List[TraceEvent]:
    """Evaluate every rule over every scope at every tick.

    Pure and deterministic: the auditor replays exactly this function
    from its own downtime bookkeeping to cross-check recorded alerts.
    Returned events are ordered by tick, then rule order, then scope.
    """
    scopes = sorted(windows_by_scope)
    firing: Dict[Tuple[str, str], bool] = {}
    out: List[TraceEvent] = []
    for tick in ticks:
        for rule in rules:
            for scope in scopes:
                windows = windows_by_scope[scope]
                short_down = _window_downtime(
                    windows, tick - rule.short_window_us, tick
                )
                long_down = _window_downtime(
                    windows, tick - rule.long_window_us, tick
                )
                short_burn = rule.burn(short_down, rule.short_window_us)
                long_burn = rule.burn(long_down, rule.long_window_us)
                key = (rule.name, scope)
                active = firing.get(key, False)
                if not active and (
                    short_burn > rule.burn_threshold
                    and long_burn > rule.burn_threshold
                ):
                    name, evidence = ALERT_FIRE, {
                        "downtime_short_us": short_down,
                        "downtime_long_us": long_down,
                    }
                elif active and short_burn <= rule.burn_threshold:
                    name, evidence = ALERT_RESOLVE, {}
                else:
                    continue
                firing[key] = not active
                out.append(TraceEvent(
                    ts_us=tick, component=ALERT_COMPONENT, name=name,
                    attrs={
                        **rule.to_attrs(),
                        "scope": scope or "cluster",
                        "short_burn": short_burn,
                        "long_burn": long_burn,
                        **evidence,
                    },
                ))
    return out


def evaluate_alerts(
    events: Sequence[TraceEvent],
    rules: Sequence[BurnRateRule] = DEFAULT_RULES,
) -> List[TraceEvent]:
    """The alert events a trace's downtime record justifies.

    Ignores any alert events already present, so evaluating an already
    annotated trace reproduces the same schedule (idempotence — the
    self-diff property leans on this).
    """
    base = [
        event for event in events
        if event.name not in (ALERT_FIRE, ALERT_RESOLVE)
    ]
    return fire_schedule(downtime_windows(base), sample_ticks(base), rules)


def rules_from_events(
    events: Iterable[TraceEvent],
) -> List[BurnRateRule]:
    """The rule set recorded alert events carry in their attrs (each
    fire/resolve restates its rule's parameters), in first-seen order."""
    rules: Dict[str, BurnRateRule] = {}
    for event in events:
        if event.name in (ALERT_FIRE, ALERT_RESOLVE):
            rule = BurnRateRule.from_attrs(event.attrs)
            rules.setdefault(rule.name, rule)
    return list(rules.values())


@dataclass
class AlertVerification:
    """Recorded alerts vs the schedule the downtime record justifies."""

    recorded: int
    expected: int
    false_fires: List[str] = field(default_factory=list)
    missed: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.false_fires and not self.missed

    def render(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        title = (
            f"Alert verification: {verdict} — {self.recorded} recorded, "
            f"{self.expected} justified"
        )
        lines = [title, "=" * len(title)]
        for item in self.false_fires:
            lines.append(f"  false fire: {item}")
        for item in self.missed:
            lines.append(f"  missed: {item}")
        if self.ok:
            lines.append("  every alert grounded in real downtime, none missed")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "recorded": self.recorded,
            "expected": self.expected,
            "false_fires": list(self.false_fires),
            "missed": list(self.missed),
        }


def _alert_key(event: TraceEvent) -> Tuple[float, str, str, str]:
    return (
        event.ts_us, event.name,
        str(event.attrs.get("rule")), str(event.attrs.get("scope")),
    )


def ungrounded_alerts(
    recorded: Iterable[TraceEvent], expected: Iterable[TraceEvent]
) -> Tuple[List[TraceEvent], List[TraceEvent]]:
    """*The* grounding verdict, ``(false fires, missed)``: the recorded
    alert events no expected one matches, and the expected ones never
    recorded — matched on (tick, fire/resolve, rule, scope), each list
    in that order. :func:`verify_alerts` feeds it the schedule
    :func:`evaluate_alerts` derives; the auditor's ``alert-grounded``
    rule feeds it the schedule its *own* downtime windows justify."""
    recorded_by_key = {_alert_key(event): event for event in recorded}
    expected_by_key = {_alert_key(event): event for event in expected}
    return (
        [recorded_by_key[key]
         for key in sorted(recorded_by_key.keys() - expected_by_key.keys())],
        [expected_by_key[key]
         for key in sorted(expected_by_key.keys() - recorded_by_key.keys())],
    )


def verify_alerts(
    events: Sequence[TraceEvent],
    rules: Optional[Sequence[BurnRateRule]] = None,
) -> AlertVerification:
    """Cross-check a trace's recorded alerts against its own downtime.

    ``rules`` defaults to the set the recorded alerts restate in their
    attrs (falling back to :data:`DEFAULT_RULES` when the trace has no
    alerts at all, so an un-annotated trace with alert-worthy downtime
    correctly reports missed windows).
    """
    recorded = [
        event for event in events
        if event.name in (ALERT_FIRE, ALERT_RESOLVE)
    ]
    if rules is None:
        rules = rules_from_events(recorded) or list(DEFAULT_RULES)
    expected = evaluate_alerts(events, rules)
    false_fires, missed = ungrounded_alerts(recorded, expected)
    return AlertVerification(
        recorded=len(recorded),
        expected=len(expected),
        false_fires=[
            f"{name} rule={rule} scope={scope} at {ts:.1f}us not justified "
            f"by any downtime window"
            for ts, name, rule, scope in map(_alert_key, false_fires)
        ],
        missed=[
            f"{name} rule={rule} scope={scope} due at {ts:.1f}us was never "
            f"recorded"
            for ts, name, rule, scope in map(_alert_key, missed)
        ],
    )
