"""Failover-timeline and latency reporting from a recorded trace.

Everything here is computed from :class:`~repro.obs.trace.TraceEvent`
lists alone — never from live experiment objects — so the same numbers
come out whether the events arrive in memory (the experiments call
:func:`analyze_timeline` directly) or from a JSONL file on disk (the
``python -m repro.obs.report`` CLI). That equivalence is what lets the
sharding experiment's hard checks (downtime bound, (N-1)/N floor) run
against trace-derived numbers and what the round-trip tests assert.

Event vocabulary consumed (see DESIGN.md "Observability"):

* ``fault.crash`` instants from ``<scope>.cluster`` — a primary died.
* ``takeover`` spans from ``<scope>.cluster`` — detection to service
  restoration, with ``bytes_restored`` in the attrs.
* ``txn.complete`` instants from the router — one served transaction,
  with ``shard`` and ``latency_us`` attrs.
* ``txn.submit`` / ``txn.retry`` / ``txn.redirect`` / ``txn.drop``
  instants — the router's routing lifecycle totals.

Usage::

    python -m repro.obs.report trace.jsonl --window-us 1000
"""

from __future__ import annotations

import argparse
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.obs.alerts import verify_alerts
from repro.obs.audit import audit_events
from repro.obs.critpath import decompose_recoveries
from repro.obs.diff import diff_files
from repro.obs.export import read_jsonl, write_chrome_trace
from repro.obs.metrics import LatencySummary
from repro.obs.series import SeriesFrame, is_series_file
from repro.obs.slo import compute_slo
from repro.obs.spans import attribute_commits
from repro.obs.trace import TraceEvent, completion_scope, pair_outages


@dataclass(frozen=True)
class FailoverSpan:
    """One shard's measured crash-to-recovery arc."""

    scope: str  # component prefix, e.g. "shard.2" ("" for an unsharded pair)
    crashed_node: str
    crash_at_us: float
    detected_at_us: float
    restored_at_us: float
    bytes_restored: int

    @property
    def shard_id(self) -> Optional[int]:
        if self.scope.startswith("shard."):
            tail = self.scope.split(".", 2)[1]
            if tail.isdigit():
                return int(tail)
        return None

    @property
    def detection_us(self) -> float:
        return self.detected_at_us - self.crash_at_us

    @property
    def takeover_us(self) -> float:
        return self.restored_at_us - self.detected_at_us

    @property
    def downtime_us(self) -> float:
        return self.restored_at_us - self.crash_at_us


@dataclass
class TimelineReport:
    """A per-window failover timeline reconstructed from a trace."""

    window_us: float
    completions: List[float]  # completion timestamps, trace order
    failovers: List[FailoverSpan]
    routing: Dict[str, int]
    latency: LatencySummary
    per_shard_completions: Dict[int, int] = field(default_factory=dict)
    #: Completions keyed by serving scope ("shard.N", or the explicit
    #: scope a completion carries — "group.N" for quorum clusters).
    per_scope_completions: Dict[str, int] = field(default_factory=dict)

    # -- throughput ----------------------------------------------------------

    @cached_property
    def _ordered(self) -> List[float]:
        return sorted(self.completions)

    def completions_between(self, start_us: float, stop_us: float) -> int:
        """Completions in ``[start_us, stop_us)``, by bisection."""
        ordered = self._ordered
        return max(
            0, bisect_left(ordered, stop_us) - bisect_left(ordered, start_us)
        )

    def window_counts(self, windows: int) -> List[int]:
        return [
            self.completions_between(i * self.window_us, (i + 1) * self.window_us)
            for i in range(windows)
        ]

    def horizon_windows(self) -> int:
        """Windows needed to cover the last completion."""
        if not self.completions:
            return 0
        return int(self._ordered[-1] // self.window_us) + 1

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        lines: List[str] = []
        title = (
            f"Failover timeline ({len(self.completions)} completions, "
            f"{self.window_us:.0f} us windows)"
        )
        lines.append(title)
        lines.append("=" * len(title))
        for span in self.failovers:
            label = (
                f"shard {span.shard_id}" if span.shard_id is not None
                else (span.scope or "pair")
            )
            lines.append(
                f"  {label}: crash of {span.crashed_node!r} at "
                f"{span.crash_at_us / 1000:.2f} ms, detected "
                f"+{span.detection_us:.0f} us, takeover "
                f"{span.takeover_us / 1000:.2f} ms "
                f"({span.bytes_restored:,} bytes restored), downtime "
                f"{span.downtime_us / 1000:.2f} ms"
            )
        if not self.failovers:
            lines.append("  no failover events in this trace")
        lines.append("")
        windows = self.horizon_windows()
        marks: Dict[int, List[str]] = {}
        for span in self.failovers:
            marks.setdefault(int(span.crash_at_us // self.window_us), []).append(
                "<- crash"
            )
            marks.setdefault(int(span.restored_at_us // self.window_us), []).append(
                "<- restored"
            )
        for index, completed in enumerate(self.window_counts(windows)):
            suffix = " ".join(marks.get(index, []))
            lines.append(
                f"  {index * self.window_us / 1000:>6.1f} ms  "
                f"{completed:>4}  {'#' * completed} {suffix}".rstrip()
            )
        lines.append("")
        lines.append(
            f"  routing: {self.routing.get('routed', 0)} routed, "
            f"{self.routing.get('completed', 0)} completed, "
            f"{self.routing.get('retries', 0)} retries, "
            f"{self.routing.get('redirects', 0)} redirects, "
            f"{self.routing.get('dropped', 0)} dropped"
        )
        if self.latency.count:
            lines.append(
                f"  latency: mean {self.latency.mean_us:.0f} us, "
                f"p50 {self.latency.p50_us:.0f} us, "
                f"p95 {self.latency.p95_us:.0f} us, "
                f"max {self.latency.max_us:.0f} us "
                f"({self.latency.count} samples)"
            )
        if self.per_shard_completions:
            shares = ", ".join(
                f"shard {shard}: {count}"
                for shard, count in sorted(self.per_shard_completions.items())
            )
            lines.append(f"  completions by shard: {shares}")
        explicit_scopes = {
            scope: count
            for scope, count in self.per_scope_completions.items()
            if not scope.startswith("shard.")
        }
        if explicit_scopes:
            shares = ", ".join(
                f"{scope}: {count}"
                for scope, count in sorted(explicit_scopes.items())
            )
            lines.append(f"  completions by scope: {shares}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "window_us": self.window_us,
            "completions": len(self.completions),
            "window_counts": self.window_counts(self.horizon_windows()),
            "failovers": [
                {
                    "scope": span.scope or "cluster",
                    "shard": span.shard_id,
                    "crashed_node": span.crashed_node,
                    "crash_at_us": span.crash_at_us,
                    "detected_at_us": span.detected_at_us,
                    "restored_at_us": span.restored_at_us,
                    "detection_us": span.detection_us,
                    "takeover_us": span.takeover_us,
                    "downtime_us": span.downtime_us,
                    "bytes_restored": span.bytes_restored,
                }
                for span in self.failovers
            ],
            "routing": dict(self.routing),
            "latency_us": self.latency.to_dict(),
            "per_shard_completions": {
                str(shard): count
                for shard, count in sorted(self.per_shard_completions.items())
            },
            "per_scope_completions": {
                scope: count
                for scope, count in sorted(self.per_scope_completions.items())
            },
        }


#: The router's lifecycle instants, by the routing total each counts.
_ROUTING_TOTALS = {
    "txn.submit": "routed",
    "txn.complete": "completed",
    "txn.retry": "retries",
    "txn.redirect": "redirects",
    "txn.drop": "dropped",
}


def analyze_timeline(
    events: Sequence[TraceEvent], window_us: float = 1_000.0
) -> TimelineReport:
    """Reconstruct the timeline report from raw trace events."""
    failovers = [
        FailoverSpan(
            scope=scope,
            crashed_node=(
                str(crash.attrs.get("node", "?")) if crash is not None else "?"
            ),
            crash_at_us=crash.ts_us if crash is not None else takeover.ts_us,
            detected_at_us=takeover.ts_us,
            restored_at_us=takeover.end_us,
            bytes_restored=int(takeover.attrs.get("bytes_restored", 0)),
        )
        for scope, scoped in pair_outages(events).items()
        for crash, takeover in scoped
        if takeover is not None  # an open outage is not a failover yet
    ]
    failovers.sort(key=lambda span: span.crash_at_us)

    routing = dict.fromkeys(_ROUTING_TOTALS.values(), 0)
    completions: List[float] = []
    latencies: List[float] = []
    per_shard: Dict[int, int] = {}
    per_scope: Dict[str, int] = {}
    for event in events:
        total = _ROUTING_TOTALS.get(event.name)
        if total is None:
            continue
        routing[total] += 1
        if total != "completed":
            continue
        completions.append(event.ts_us)
        if "latency_us" in event.attrs:
            latencies.append(float(event.attrs["latency_us"]))
        if "shard" in event.attrs:
            shard = int(event.attrs["shard"])
            per_shard[shard] = per_shard.get(shard, 0) + 1
        scope = completion_scope(event)
        if scope is not None:
            per_scope[scope] = per_scope.get(scope, 0) + 1
    return TimelineReport(
        window_us=window_us,
        completions=completions,
        failovers=failovers,
        routing=routing,
        latency=LatencySummary.from_values(latencies),
        per_shard_completions=per_shard,
        per_scope_completions=per_scope,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description=(
            "Render a failover timeline (throughput per window, "
            "detection/takeover/downtime spans) and latency summary "
            "from a recorded JSONL trace; optionally audit the trace "
            "against the replication invariants, fold its downtime "
            "into SLO availability nines, and attribute commit time "
            "to pipeline phases."
        ),
    )
    parser.add_argument(
        "trace",
        help="path to a JSONL trace file (or, with --series, a "
             "repro-series-v1 series file)",
    )
    parser.add_argument(
        "--window-us", type=float, default=1_000.0,
        help="throughput window width in simulated us (default 1000)",
    )
    parser.add_argument(
        "--chrome-trace", metavar="PATH", default=None,
        help="additionally convert the trace to Chrome trace_event "
             "JSON at PATH (open in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--audit", action="store_true",
        help="run the online trace auditor; a non-empty violation list "
             "makes the exit status 1",
    )
    parser.add_argument(
        "--max-lag-bytes", type=int, default=None,
        help="with --audit, also bound the redo ring's apply lag",
    )
    parser.add_argument(
        "--slo", action="store_true",
        help="fold failover downtime into per-shard and cluster-wide "
             "availability (audit-confirmed when --audit is also given)",
    )
    parser.add_argument(
        "--scope", action="append", metavar="SCOPE", default=None,
        help="with --slo, --spans or --recovery, restrict the report to "
             "matching scopes (exact label or prefix, e.g. 'shard.2', "
             "'group'); repeatable — shard and quorum-group scopes from "
             "one trace can be reported separately without "
             "post-processing",
    )
    parser.add_argument(
        "--spans", action="store_true",
        help="summarize commit.span trees into per-phase critical-path "
             "attribution",
    )
    parser.add_argument(
        "--recovery", action="store_true",
        help="decompose each failover's recovery.span tree into its "
             "critical-path phases (where did the downtime go?)",
    )
    parser.add_argument(
        "--alerts", action="store_true",
        help="cross-check the trace's alert.fire/alert.resolve events "
             "against a burn-rate replay; an unjustified or missing "
             "alert makes the exit status 1",
    )
    parser.add_argument(
        "--diff", metavar="BASELINE", default=None,
        help="structurally diff the trace (or series) against BASELINE "
             "after canonical id renumbering; any divergence makes the "
             "exit status 1",
    )
    parser.add_argument(
        "--series", action="store_true",
        help="render the sampled time series (sparkline per probe): "
             "rebuilt from the trace's series.sample events, or read "
             "directly when the input file is itself repro-series-v1 "
             "JSONL",
    )
    parser.add_argument(
        "--series-out", metavar="PATH", default=None,
        help="with --series, additionally write the series as "
             "canonical repro-series-v1 JSONL to PATH",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json emits one object with a section per "
             "requested report)",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the report to FILE instead of stdout (parent "
             "directories are created; exit status is unchanged)",
    )
    args = parser.parse_args(argv)
    if args.series_out and not args.series:
        parser.error("--series-out requires --series")
    if args.scope and not (args.slo or args.spans or args.recovery):
        parser.error("--scope requires --slo, --spans or --recovery")

    frame = None
    events: List[TraceEvent] = []
    try:
        series_only = args.series and is_series_file(args.trace)
        if series_only:
            frame = SeriesFrame.read_jsonl(args.trace)
        else:
            events, _metrics = read_jsonl(args.trace)
            if args.series:
                frame = SeriesFrame.from_events(events)
    except (OSError, ValueError) as error:
        # Missing, or cut / corrupted mid-line (that names path:line).
        parser.error(f"cannot read trace file: {error}")

    done: Dict[str, object] = {}

    def _slo():
        audit = done.get("audit")
        return compute_slo(
            events, audit_ok=None if audit is None else audit.ok,
            scopes=args.scope,
        )

    def _diff():
        try:
            return diff_files(args.diff, args.trace)
        except (OSError, ValueError) as error:
            parser.error(f"cannot read baseline file: {error}")

    # The report's sections, in output order: (name, requested?, compute,
    # the result attribute that must hold for exit status 0). Every
    # result renders as text and as a JSON object under its name.
    sections = (
        ("timeline", not series_only,
         lambda: analyze_timeline(events, window_us=args.window_us), None),
        ("series", frame is not None, lambda: frame, None),
        ("audit", args.audit,
         lambda: audit_events(events, max_lag_bytes=args.max_lag_bytes), "ok"),
        ("slo", args.slo, _slo, None),
        ("attribution", args.spans,
         lambda: attribute_commits(events, scopes=args.scope), None),
        ("recovery", args.recovery,
         lambda: decompose_recoveries(events, scopes=args.scope), None),
        ("alerts", args.alerts, lambda: verify_alerts(events), "ok"),
        ("diff", args.diff, _diff, "identical"),
    )
    failed = False
    for name, requested, compute, gate in sections:
        if requested:
            done[name] = compute()
            failed |= gate is not None and not getattr(done[name], gate)

    if args.format == "json":
        payload = {name: result.to_dict() for name, result in done.items()}
        emitted = [json.dumps(payload, indent=2, sort_keys=True)]
    else:
        emitted = ["\n\n".join(result.render() for result in done.values())]
    if args.chrome_trace:
        write_chrome_trace(args.chrome_trace, events)
        if args.format != "json":
            emitted.append(f"\n  chrome trace written to {args.chrome_trace}")
    if frame is not None and args.series_out:
        frame.write_jsonl(args.series_out)
        if args.format != "json":
            emitted.append(f"\n  series written to {args.series_out}")

    text = "\n".join(emitted)
    if args.output:
        target = Path(args.output)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
