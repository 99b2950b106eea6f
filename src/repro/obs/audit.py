"""Online trace auditing: machine-checked replication invariants.

The observability layer records what the systems *did*; this module
checks that what they did is *allowed*. A :class:`TraceAuditor`
consumes a trace event stream — live, event by event, or replayed from
JSONL — and emits a typed :class:`Violation` for every breach of the
invariants the paper's protocols promise:

* **ring-overrun** — the redo-ring producer may never lap the
  consumer: ``produced - consumed <= capacity`` on every
  ``ring.publish`` (Section 6.1's two-pointer discipline).
* **ring-monotone** — both ring pointers are monotonically increasing
  byte sequence numbers, and the consumer never passes the producer.
* **lag-bound** — the backup's apply lag stays within a configured
  bound (defaults to the ring capacity carried on the event).
* **commit-ordering** — a commit claiming 2-safe must show the backup
  durably caught up (``ring_lag_bytes == 0``): 2-safe with redo still
  in flight is exactly the lost-transaction window 2-safe exists to
  close (Section 2.1).
* **epoch-monotone** — membership view ids and service epochs only
  move forward, per scope.
* **downtime-completion** — no transaction completes for a shard
  inside its declared downtime window (``fault.crash`` until the
  ``takeover`` span's service restoration).
* **span-sum** — every ``commit.span`` parent's duration equals the
  sum of its ``commit.phase`` children within float tolerance (the
  tiling invariant of :mod:`repro.obs.spans`).
* **quorum-intersection** — every ``quorum.read`` / ``quorum.write``
  gathered at least its required quorum, and a strict-mode group's
  configuration actually guarantees read/write intersection
  (``R + W > N``) — acks below quorum mean the operation claimed
  success it was not entitled to.
* **vv-monotone** — version vectors only move forward: a write
  coordinator's own counter strictly increases per key, and
  successive strict reads of one key return vectors that descend
  from what was read before (the read-latest guarantee, re-checked
  offline).
* **recovery-span-tiles-downtime** — every closed downtime window is
  matched by exactly one ``recovery.span`` with the same bounds, and
  that span's ``recovery.phase`` children tile it exactly (contiguous,
  first at the crash, last at restoration, sum equal to the span
  within float tolerance). Checked only when the trace records
  recovery spans at all, so pre-recovery traces stay audit-clean.
* **alert-grounded** — the recorded ``alert.fire`` / ``alert.resolve``
  instants must equal the schedule the trace's own downtime windows
  justify: the auditor replays the burn-rate engine from its downtime
  bookkeeping and flags every false fire and every missed window.
  Checked only when the trace records alert events.

The auditor is deliberately stream-friendly: :meth:`TraceAuditor.feed`
does all per-event work online; only the span-sum reconciliation, the
recovery/downtime tiling, the alert replay (and any still-open
downtime windows) wait for :meth:`TraceAuditor.finish`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.alerts import (
    ALERT_FIRE,
    ALERT_RESOLVE,
    fire_schedule,
    rules_from_events,
    ungrounded_alerts,
)
from repro.obs.recovery import RECOVERY_PHASE, RECOVERY_PHASES, RECOVERY_SPAN
from repro.obs.series import SAMPLE_EVENT
from repro.obs.spans import (
    COMMIT_PHASE,
    COMMIT_SPAN,
    SPAN_SUM_ATOL,
    SPAN_SUM_RTOL,
)
from repro.obs.trace import TraceEvent, completion_scope, scope_of_component
from repro.quorum.versions import VersionVector


@dataclass(frozen=True)
class Violation:
    """One invariant breach, anchored to the event that revealed it."""

    rule: str
    ts_us: float
    component: str
    message: str
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "rule": self.rule,
            "ts_us": self.ts_us,
            "component": self.component,
            "message": self.message,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record

    def __str__(self) -> str:
        return (
            f"[{self.rule}] t={self.ts_us:.1f}us {self.component}: "
            f"{self.message}"
        )


@dataclass
class AuditReport:
    """The auditor's verdict over one trace."""

    events_seen: int
    commits_checked: int
    spans_checked: int
    violations: List[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        verdict = "PASS" if self.ok else f"FAIL ({len(self.violations)} violations)"
        title = (
            f"Trace audit: {verdict} — {self.events_seen} events, "
            f"{self.commits_checked} commits, {self.spans_checked} commit spans"
        )
        lines = [title, "=" * len(title)]
        for violation in self.violations:
            lines.append(f"  {violation}")
        if self.ok:
            lines.append("  all invariants hold")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "events_seen": self.events_seen,
            "commits_checked": self.commits_checked,
            "spans_checked": self.spans_checked,
            "violations": [violation.to_dict() for violation in self.violations],
        }


class TraceAuditor:
    """Feed trace events in stream order; collect violations.

    Args:
        max_lag_bytes: optional hard bound on the redo ring's apply
            lag. When None the bound is each event's own ring capacity
            (i.e. only overruns are flagged).
    """

    def __init__(self, max_lag_bytes: Optional[int] = None):
        self.max_lag_bytes = max_lag_bytes
        self.violations: List[Violation] = []
        self.events_seen = 0
        self.commits_checked = 0
        # Ring pointer state per producing/applying component.
        self._ring_produced: Dict[str, int] = {}
        self._ring_consumed: Dict[str, int] = {}
        # Monotone epoch state.
        self._view_ids: Dict[str, int] = {}
        self._epochs: Dict[str, int] = {}
        # Downtime windows per scope: closed (start, end) plus at most
        # one open window (start, None) while a takeover is pending.
        self._downtime: Dict[str, List[Tuple[float, Optional[float]]]] = {}
        # Span tiling: parent span_id -> (event, declared duration),
        # and accumulated child durations per parent.
        self._span_parents: Dict[int, TraceEvent] = {}
        self._span_child_sums: Dict[int, float] = {}
        self._orphan_children: List[TraceEvent] = []
        # Version-vector monotonicity state: a write coordinator's last
        # own-counter per (component, key, coordinator), and the last
        # strict read's merged vector per (component, key).
        self._write_counters: Dict[Tuple[str, int, int], int] = {}
        self._read_vvs: Dict[Tuple[str, int], VersionVector] = {}
        # Recovery-span tiling: root events by span id, their phase
        # children in stream order, and phases with unknown parents.
        self._recovery_roots: Dict[int, TraceEvent] = {}
        self._recovery_children: Dict[int, List[TraceEvent]] = {}
        self._recovery_orphans: List[TraceEvent] = []
        # Alert grounding: recorded alert instants plus the evaluation
        # ticks (sampler instants; crash/takeover edges as fallback).
        self._alert_events: List[TraceEvent] = []
        self._sample_ticks: set = set()
        self._edge_ticks: set = set()

    # -- violation plumbing ---------------------------------------------------

    def _flag(self, rule: str, event: TraceEvent, message: str,
              **attrs: object) -> None:
        self.violations.append(
            Violation(rule, event.ts_us, event.component, message, attrs)
        )

    # -- per-event checks -----------------------------------------------------

    def feed(self, event: TraceEvent) -> None:
        """Check one event, in stream order."""
        self.events_seen += 1
        name = event.name
        if name in ("ring.publish", "ring.apply"):
            self._check_ring(event)
        elif name == "commit":
            self._check_commit(event)
        elif name == "view.change":
            self._check_advances(event, "view_id", "view id", self._view_ids)
        elif name == "service.restored":
            if "epoch" in event.attrs:
                self._check_advances(
                    event, "epoch", "service epoch", self._epochs
                )
        elif name == "fault.crash":
            self._open_downtime(event)
        elif name == "takeover":
            self._close_downtime(event)
        elif name == "txn.complete":
            self._check_completion(event)
        elif name == "quorum.write":
            self._check_quorum(event)
            self._check_write_vv(event)
        elif name == "quorum.read":
            self._check_quorum(event)
            self._check_read_vv(event)
        elif name == COMMIT_SPAN:
            span_id = int(event.attrs.get("span_id", 0))
            self._span_parents[span_id] = event
            self._span_child_sums.setdefault(span_id, 0.0)
        elif name == COMMIT_PHASE:
            parent_id = int(event.attrs.get("parent_id", 0))
            if parent_id in self._span_parents:
                self._span_child_sums[parent_id] += event.dur_us
            else:
                self._orphan_children.append(event)
        elif name == RECOVERY_SPAN:
            span_id = int(event.attrs.get("span_id", 0))
            self._recovery_roots[span_id] = event
            self._recovery_children.setdefault(span_id, [])
        elif name == RECOVERY_PHASE:
            parent_id = int(event.attrs.get("parent_id", 0))
            if parent_id in self._recovery_roots:
                self._recovery_children[parent_id].append(event)
            else:
                self._recovery_orphans.append(event)
        elif name in (ALERT_FIRE, ALERT_RESOLVE):
            self._alert_events.append(event)
        elif name == SAMPLE_EVENT:
            self._sample_ticks.add(event.ts_us)

    def _check_ring(self, event: TraceEvent) -> None:
        attrs = event.attrs
        produced = int(attrs["produced"])
        consumed = int(attrs["consumed"])
        capacity = int(attrs["capacity"])
        key = event.component
        lag = produced - consumed
        if lag > capacity:
            self._flag(
                "ring-overrun", event,
                f"producer lapped consumer: lag {lag} > capacity {capacity}",
                produced=produced, consumed=consumed, capacity=capacity,
            )
        bound = self.max_lag_bytes
        if bound is not None and lag > bound:
            self._flag(
                "lag-bound", event,
                f"apply lag {lag} bytes exceeds bound {bound}",
                lag=lag, bound=bound,
            )
        if lag < 0:
            self._flag(
                "ring-monotone", event,
                f"consumer passed producer: consumed {consumed} > "
                f"produced {produced}",
                produced=produced, consumed=consumed,
            )
        last_produced = self._ring_produced.get(key)
        if last_produced is not None and produced < last_produced:
            self._flag(
                "ring-monotone", event,
                f"producer pointer went backwards: {produced} < {last_produced}",
                produced=produced, previous=last_produced,
            )
        last_consumed = self._ring_consumed.get(key)
        if last_consumed is not None and consumed < last_consumed:
            self._flag(
                "ring-monotone", event,
                f"consumer pointer went backwards: {consumed} < {last_consumed}",
                consumed=consumed, previous=last_consumed,
            )
        self._ring_produced[key] = produced
        self._ring_consumed[key] = consumed

    def _check_commit(self, event: TraceEvent) -> None:
        self.commits_checked += 1
        safety = event.attrs.get("safety")
        if safety == "2-safe":
            lag = int(event.attrs.get("ring_lag_bytes", 0))
            if lag != 0:
                self._flag(
                    "commit-ordering", event,
                    f"2-safe commit returned with {lag} redo bytes still "
                    f"unapplied on the backup",
                    ring_lag_bytes=lag,
                )

    def _check_advances(
        self, event: TraceEvent, attr: str, what: str, seen: Dict[str, int]
    ) -> None:
        """The epoch-monotone rule for one id family (view ids, service
        epochs): ``attr`` strictly increases per component."""
        value = int(event.attrs.get(attr, 0))
        last = seen.get(event.component)
        if last is not None and value <= last:
            self._flag(
                "epoch-monotone", event,
                f"{what} did not advance: {value} after {last}",
                **{attr: value, "previous": last},
            )
        seen[event.component] = value

    # -- quorum invariants ----------------------------------------------------

    def _check_quorum(self, event: TraceEvent) -> None:
        attrs = event.attrs
        acks = int(attrs.get("acks", 0))
        required = int(attrs.get("required", 0))
        if acks < required:
            self._flag(
                "quorum-intersection", event,
                f"{event.name} gathered {acks} acks, quorum requires "
                f"{required}",
                acks=acks, required=required,
            )
        if attrs.get("mode") == "strict":
            n = int(attrs.get("n", 0))
            r = int(attrs.get("r", 0))
            w = int(attrs.get("w", 0))
            if r + w <= n:
                self._flag(
                    "quorum-intersection", event,
                    f"strict group configured with R+W <= N "
                    f"({r}+{w} <= {n}): read and write quorums need not "
                    f"intersect",
                    n=n, r=r, w=w,
                )

    def _check_write_vv(self, event: TraceEvent) -> None:
        attrs = event.attrs
        if "vv" not in attrs or "coordinator" not in attrs:
            return
        vv = VersionVector.decode(str(attrs["vv"]))
        coordinator = int(attrs["coordinator"])
        key = (event.component, int(attrs.get("key", -1)), coordinator)
        counter = vv.counter(coordinator)
        last = self._write_counters.get(key)
        if last is not None and counter <= last:
            self._flag(
                "vv-monotone", event,
                f"write coordinator {coordinator}'s counter did not "
                f"advance: {counter} after {last}",
                coordinator=coordinator, counter=counter, previous=last,
            )
        self._write_counters[key] = max(counter, last or 0)

    def _check_read_vv(self, event: TraceEvent) -> None:
        attrs = event.attrs
        # Only strict reads promise monotone vectors; a sloppy read on
        # the small side of a partition may legitimately regress.
        if attrs.get("mode") != "strict" or "vv" not in attrs:
            return
        vv = VersionVector.decode(str(attrs["vv"]))
        key = (event.component, int(attrs.get("key", -1)))
        last = self._read_vvs.get(key)
        if last is not None and not vv.descends(last):
            self._flag(
                "vv-monotone", event,
                f"strict read returned {vv.encode() or 'empty'!r}, which "
                f"does not descend from the previously read "
                f"{last.encode()!r}",
                vv=vv.encode(), previous=last.encode(),
            )
        self._read_vvs[key] = vv.merge(last) if last is not None else vv

    # -- downtime windows -----------------------------------------------------

    def _open_downtime(self, event: TraceEvent) -> None:
        scope = scope_of_component(event.component)
        self._downtime.setdefault(scope, []).append((event.ts_us, None))
        self._edge_ticks.add(event.ts_us)

    def _close_downtime(self, event: TraceEvent) -> None:
        scope = scope_of_component(event.component)
        self._edge_ticks.add(event.ts_us)
        self._edge_ticks.add(event.end_us)
        windows = self._downtime.setdefault(scope, [])
        for index in range(len(windows) - 1, -1, -1):
            start, end = windows[index]
            if end is None:
                windows[index] = (start, event.end_us)
                return
        # A takeover with no recorded crash still declares downtime
        # over the span itself (detection to restoration).
        windows.append((event.ts_us, event.end_us))

    def _check_completion(self, event: TraceEvent) -> None:
        scope = completion_scope(event)
        for window_scope, windows in self._downtime.items():
            if window_scope and scope is not None and window_scope != scope:
                continue
            for start, end in windows:
                closed_end = end if end is not None else float("inf")
                if start <= event.ts_us < closed_end:
                    self._flag(
                        "downtime-completion", event,
                        f"transaction completed at {event.ts_us:.1f}us inside "
                        f"{window_scope or 'cluster'} downtime "
                        f"[{start:.1f}, "
                        f"{'open' if end is None else format(end, '.1f')})",
                        scope=window_scope, window_start_us=start,
                        window_end_us=end,
                    )
                    return

    # -- finalization ---------------------------------------------------------

    def _check_recovery_tiling(self) -> None:
        """The recovery-span-tiles-downtime rule.

        Gated on the trace recording any recovery spans at all: traces
        from before the recovery engine (and synthetic fixtures that
        only exercise other rules) stay clean.
        """
        if not self._recovery_roots:
            return
        rule = "recovery-span-tiles-downtime"
        by_scope: Dict[str, List[TraceEvent]] = {}
        for span_id, root in sorted(self._recovery_roots.items()):
            scope = scope_of_component(root.component)
            by_scope.setdefault(scope, []).append(root)
            children = sorted(
                self._recovery_children.get(span_id, []),
                key=lambda child: child.ts_us,
            )
            tolerance = SPAN_SUM_ATOL + SPAN_SUM_RTOL * abs(root.dur_us)
            child_sum = sum(child.dur_us for child in children)
            if abs(child_sum - root.dur_us) > tolerance:
                self._flag(
                    rule, root,
                    f"recovery span duration {root.dur_us:.6f}us != phase "
                    f"sum {child_sum:.6f}us",
                    dur_us=root.dur_us, phase_sum_us=child_sum,
                )
            cursor = root.ts_us
            contiguous = True
            for child in children:
                phase = str(child.attrs.get("phase"))
                if phase not in RECOVERY_PHASES:
                    self._flag(
                        rule, child,
                        f"unknown recovery phase {phase!r}",
                        phase=phase,
                    )
                if abs(child.ts_us - cursor) > SPAN_SUM_ATOL:
                    self._flag(
                        rule, child,
                        f"recovery phase {phase!r} starts at "
                        f"{child.ts_us:.6f}us, expected {cursor:.6f}us "
                        f"(children must tile the downtime)",
                        expected_start_us=cursor,
                    )
                    contiguous = False
                    break
                cursor = child.end_us
            if children and contiguous and (
                abs(cursor - root.end_us) > tolerance
            ):
                self._flag(
                    rule, root,
                    f"last recovery phase ends at {cursor:.6f}us, recovery "
                    f"span ends at {root.end_us:.6f}us",
                    last_phase_end_us=cursor,
                )
        for child in self._recovery_orphans:
            self._flag(
                rule, child,
                f"recovery.phase child references unknown parent span "
                f"{child.attrs.get('parent_id')}",
            )
        # One root per closed downtime window, with matching bounds.
        for scope in sorted(set(self._downtime) | set(by_scope)):
            roots = by_scope.get(scope, [])
            windows = self._downtime.get(scope, [])
            unmatched = list(roots)
            for start, end in windows:
                if end is None:
                    continue  # still open: restoration never happened
                tolerance = SPAN_SUM_ATOL + SPAN_SUM_RTOL * abs(end - start)
                match = next(
                    (
                        root for root in unmatched
                        if abs(root.ts_us - start) <= tolerance
                        and abs(root.end_us - end) <= tolerance
                    ),
                    None,
                )
                if match is None:
                    self.violations.append(Violation(
                        rule, start, scope or "cluster",
                        f"downtime window [{start:.1f}, {end:.1f})us has no "
                        f"matching recovery span",
                        {"window_start_us": start, "window_end_us": end},
                    ))
                else:
                    unmatched.remove(match)
            for root in unmatched:
                self._flag(
                    rule, root,
                    f"recovery span [{root.ts_us:.1f}, {root.end_us:.1f})us "
                    f"matches no downtime window of scope "
                    f"{scope or 'cluster'}",
                    scope=scope,
                )

    def _check_alert_grounding(self) -> None:
        """The alert-grounded rule: recorded alerts must equal the
        schedule the trace's own downtime record justifies. Gated on
        the trace carrying alert events at all."""
        if not self._alert_events:
            return
        rules = rules_from_events(self._alert_events)
        ticks = sorted(self._sample_ticks or self._edge_ticks)
        false_fires, missed = ungrounded_alerts(
            self._alert_events, fire_schedule(self._downtime, ticks, rules)
        )
        for event in false_fires:
            self._flag(
                "alert-grounded", event,
                f"{event.name} for rule {event.attrs.get('rule')!r} scope "
                f"{event.attrs.get('scope')!r} at {event.ts_us:.1f}us is not "
                f"justified by any downtime window",
                rule_name=event.attrs.get("rule"),
                scope=event.attrs.get("scope"),
            )
        for event in missed:
            self._flag(
                "alert-grounded", event,
                f"justified {event.name} for rule "
                f"{event.attrs.get('rule')!r} scope "
                f"{event.attrs.get('scope')!r} due at {event.ts_us:.1f}us "
                f"was never recorded (missed window)",
                rule_name=event.attrs.get("rule"),
                scope=event.attrs.get("scope"),
            )

    def finish(self) -> AuditReport:
        """Run the deferred whole-trace checks and return the report."""
        for span_id, parent in sorted(self._span_parents.items()):
            child_sum = self._span_child_sums.get(span_id, 0.0)
            tolerance = SPAN_SUM_ATOL + SPAN_SUM_RTOL * abs(parent.dur_us)
            if abs(child_sum - parent.dur_us) > tolerance:
                self._flag(
                    "span-sum", parent,
                    f"commit span duration {parent.dur_us:.6f}us != phase "
                    f"sum {child_sum:.6f}us",
                    dur_us=parent.dur_us, phase_sum_us=child_sum,
                )
        for child in self._orphan_children:
            self._flag(
                "span-sum", child,
                f"commit.phase child references unknown parent span "
                f"{child.attrs.get('parent_id')}",
            )
        self._check_recovery_tiling()
        self._check_alert_grounding()
        return AuditReport(
            events_seen=self.events_seen,
            commits_checked=self.commits_checked,
            spans_checked=len(self._span_parents),
            violations=list(self.violations),
        )


def audit_events(
    events: Iterable[TraceEvent], max_lag_bytes: Optional[int] = None
) -> AuditReport:
    """Audit an in-memory event stream."""
    auditor = TraceAuditor(max_lag_bytes=max_lag_bytes)
    for event in events:
        auditor.feed(event)
    return auditor.finish()
