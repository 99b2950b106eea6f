"""Critical-path extraction over any causal span DAG.

Any events linked through ``trace_id``/``span_id``/``parent_id`` attrs
form a span forest. :func:`collect_span_forest` is *the* joiner:
:func:`repro.obs.spans.collect_commit_spans` and
:func:`repro.obs.recovery.collect_recoveries` only map its roots onto
their dataclasses. The critical path of a root is the backward walk
from its end attributing every instant to the deepest descendant span
active at that instant — gaps no child covers are the parent's own
time.

Two invariants the property suite pins down:

* ``critical_path_us(root) <= root.dur_us`` for *any* child geometry
  (children are clipped to the parent's interval, overlap is counted
  once), and
* equality exactly when the children tile the parent — which both the
  commit and recovery recorders guarantee by construction.

On top of the walker sits the downtime decomposition: per-scope tables
of where recovery time went (dominant phase, p50/p95/p99 per phase
across repeated crashes, the resume gap to the first served commit)
and the SLO cross-check used by the experiments' ``check()``s — the
per-scope recovery roots must reproduce ``obs.slo``'s downtime windows
to the microsecond.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.audit import SPAN_SUM_ATOL, SPAN_SUM_RTOL
from repro.obs.recovery import (
    RECOVERY_PHASE,
    RECOVERY_PHASES,
    RECOVERY_SPAN,
    RESUME_COLUMN,
    RecoveryTree,
    collect_recoveries,
)
from repro.obs.trace import KIND_SPAN, component_matches


@dataclass
class SpanNode:
    """One span in a reconstructed forest."""

    event: object
    span_id: int
    parent_id: Optional[int]
    trace_id: Optional[int]
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def start_us(self) -> float:
        return self.event.ts_us

    @property
    def end_us(self) -> float:
        return self.event.ts_us + self.event.dur_us

    @property
    def dur_us(self) -> float:
        return self.event.dur_us

    @property
    def label(self) -> str:
        phase = self.event.attrs.get("phase")
        return str(phase) if phase is not None else self.event.name

    def tree_fields(self) -> Dict[str, object]:
        """What a commit tree and a recovery tree both keep of their
        root: its bounds, its attrs without the causal ids, and its
        children's durations summed per label (in event order)."""
        phases: Dict[str, float] = {}
        for child in self.children:
            phases[child.label] = phases.get(child.label, 0.0) + child.dur_us
        return {
            "trace_id": self.trace_id,
            "component": self.event.component,
            "start_us": self.start_us,
            "dur_us": self.dur_us,
            "phases": phases,
            "attrs": {
                key: value for key, value in self.event.attrs.items()
                if key not in ("trace_id", "span_id")
            },
        }


@dataclass(frozen=True)
class PathSegment:
    """One critical-path interval, attributed to the deepest span
    active over it (the root itself for gaps no child covers)."""

    node: SpanNode
    start_us: float
    end_us: float

    @property
    def dur_us(self) -> float:
        return self.end_us - self.start_us


def collect_span_forest(
    events: Iterable,
    names: Optional[Sequence[str]] = None,
    component_prefix: Optional[str] = None,
) -> List[SpanNode]:
    """Rebuild the span forest from any event stream.

    Every span event carrying a ``span_id`` becomes a node; nodes
    whose ``parent_id`` resolves become children (in event order),
    everything else is a root. ``names`` restricts which event names
    participate (e.g. ``("commit.span", "commit.phase")``);
    ``component_prefix`` filters scopes the usual exact-or-dotted way.
    """
    nodes: List[SpanNode] = []
    by_id: Dict[int, SpanNode] = {}
    for event in events:
        if names is not None and event.name not in names:
            continue
        if event.kind != KIND_SPAN:
            continue
        attrs = event.attrs
        if "span_id" not in attrs:
            continue
        if component_prefix is not None and not component_matches(
            event.component, component_prefix
        ):
            continue
        node = SpanNode(
            event=event,
            span_id=int(attrs["span_id"]),
            parent_id=(
                int(attrs["parent_id"]) if "parent_id" in attrs else None
            ),
            trace_id=(
                int(attrs["trace_id"]) if "trace_id" in attrs else None
            ),
        )
        nodes.append(node)
        by_id[node.span_id] = node
    roots: List[SpanNode] = []
    for node in nodes:
        parent = (
            by_id.get(node.parent_id) if node.parent_id is not None else None
        )
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    return roots


def critical_path(root: SpanNode) -> List[PathSegment]:
    """The root's interval, tiled into segments attributed to the
    deepest active descendant (backward walk; overlap counted once,
    children clipped to the parent)."""
    segments: List[PathSegment] = []
    _walk(root, root.start_us, root.end_us, segments)
    segments.reverse()
    return segments


def _walk(
    node: SpanNode, lo: float, hi: float, out: List[PathSegment]
) -> None:
    """Tile ``[lo, hi]`` backward, attributing covered stretches to
    ``node``'s children (recursively) and gaps to ``node`` itself."""
    children = sorted(
        (c for c in node.children if c.start_us < hi and c.end_us > lo),
        key=lambda c: (c.end_us, c.start_us),
        reverse=True,
    )
    cursor = hi
    for child in children:
        end = min(child.end_us, cursor)
        if end <= lo:
            break
        if end < cursor:
            out.append(PathSegment(node, end, cursor))
        start = max(child.start_us, lo)
        if start < end:
            _walk(child, start, end, out)
        # A child clipped to nothing (zero-width, or starting past the
        # cursor) must never move the cursor *forward* — that would
        # re-attribute an already-covered stretch to the parent.
        cursor = min(cursor, start)
        if cursor <= lo:
            break
    if cursor > lo:
        out.append(PathSegment(node, lo, cursor))


def critical_path_us(root: SpanNode) -> float:
    """Total critical-path time attributed to descendants — at most the
    root's duration, exactly it when the children tile the root."""
    return sum(
        segment.dur_us
        for segment in critical_path(root)
        if segment.node is not root
    )


def self_time_us(root: SpanNode) -> float:
    """The stretches of the root no child covers."""
    return root.dur_us - critical_path_us(root)


# -- downtime decomposition --------------------------------------------------


@dataclass
class ScopeDecomposition:
    """Where one scope's recovery time went, across its failovers."""

    scope: str
    recoveries: int
    total_downtime_us: float
    phase_totals: Dict[str, float]
    #: p50/p95/p99 per phase (plus "recovery" end-to-end and "resume"),
    #: as :class:`~repro.obs.report.LatencySummary` values.
    latency: Dict[str, object]
    dominant_phase: Optional[str]
    resume_gaps: int

    @property
    def label(self) -> str:
        return self.scope or "cluster"

    def share(self, phase: str) -> float:
        if not self.total_downtime_us:
            return 0.0
        return self.phase_totals.get(phase, 0.0) / self.total_downtime_us

    def to_dict(self) -> Dict[str, object]:
        return {
            "scope": self.label,
            "recoveries": self.recoveries,
            "total_downtime_us": self.total_downtime_us,
            "dominant_phase": self.dominant_phase,
            "phase_totals_us": dict(self.phase_totals),
            "phase_shares": {
                phase: self.share(phase) for phase in self.phase_totals
            },
            "resume_gaps": self.resume_gaps,
            "latency_us": {
                name: summary.to_dict()
                for name, summary in self.latency.items()
            },
        }


@dataclass
class RecoveryDecomposition:
    """Per-scope downtime decomposition over one trace."""

    trees: List[RecoveryTree]
    scopes: List[ScopeDecomposition]

    @property
    def recoveries(self) -> int:
        return len(self.trees)

    def scope(self, label: str) -> ScopeDecomposition:
        for scope in self.scopes:
            if scope.label == (label or "cluster"):
                return scope
        raise KeyError(f"no recovery decomposition for scope {label!r}")

    def render(self) -> str:
        title = (
            f"Recovery decomposition ({self.recoveries} failover(s), "
            f"{len(self.scopes)} scope(s))"
        )
        lines = [title, "=" * len(title)]
        for scope in self.scopes:
            recovery = scope.latency.get("recovery")
            lines.append(
                f"  {scope.label}: {scope.recoveries} recovery(ies), "
                f"downtime {scope.total_downtime_us / 1000:.2f} ms, "
                f"dominant phase: {scope.dominant_phase or '(none)'}"
            )
            if recovery is not None and recovery.count:
                lines.append(
                    f"    end-to-end: mean {recovery.mean_us:.1f} us, "
                    f"p50 {recovery.p50_us:.1f}, p95 {recovery.p95_us:.1f}, "
                    f"p99 {recovery.p99_us:.1f}"
                )
            for phase in RECOVERY_PHASES:
                total = scope.phase_totals.get(phase, 0.0)
                if not total:
                    continue
                summary = scope.latency[phase]
                lines.append(
                    f"    {phase:>8}: {scope.share(phase) * 100:5.1f}%  "
                    f"(mean {summary.mean_us:.1f} us, "
                    f"p50 {summary.p50_us:.1f}, p95 {summary.p95_us:.1f}, "
                    f"p99 {summary.p99_us:.1f})"
                )
            resume = scope.latency.get(RESUME_COLUMN)
            if resume is not None and resume.count:
                lines.append(
                    f"    {RESUME_COLUMN:>8}: +{resume.mean_us:.1f} us mean "
                    f"to first served commit "
                    f"(p95 {resume.p95_us:.1f}, {resume.count} linked)"
                )
        if not self.scopes:
            lines.append("  no recovery spans in this trace")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "recoveries": self.recoveries,
            "scopes": [scope.to_dict() for scope in self.scopes],
        }


def decompose_recoveries(
    events: Iterable, scopes: Optional[Sequence[str]] = None
) -> RecoveryDecomposition:
    """Build the per-scope downtime-decomposition tables from a trace.

    ``scopes`` restricts the tables the way ``--scope`` filters SLO
    output (exact label or dotted prefix).
    """
    from repro.obs.report import LatencySummary
    from repro.obs.slo import _scope_selected

    trees = [
        tree for tree in collect_recoveries(events)
        if _scope_selected(tree.scope, scopes)
    ]
    by_scope: Dict[str, List[RecoveryTree]] = {}
    for tree in trees:
        by_scope.setdefault(tree.scope, []).append(tree)
    scope_tables: List[ScopeDecomposition] = []
    for scope in sorted(by_scope):
        scoped = by_scope[scope]
        phase_totals: Dict[str, float] = {}
        per_phase: Dict[str, List[float]] = {}
        gaps: List[float] = []
        for tree in scoped:
            for phase, dur in tree.phases.items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + dur
                per_phase.setdefault(phase, []).append(dur)
            if tree.resume_gap_us is not None:
                gaps.append(tree.resume_gap_us)
        latency: Dict[str, object] = {
            "recovery": LatencySummary.from_values(
                [tree.dur_us for tree in scoped]
            ),
            RESUME_COLUMN: LatencySummary.from_values(gaps),
        }
        for phase, values in per_phase.items():
            latency[phase] = LatencySummary.from_values(values)
        dominant = (
            max(phase_totals.items(), key=lambda item: item[1])[0]
            if phase_totals else None
        )
        scope_tables.append(
            ScopeDecomposition(
                scope=scope,
                recoveries=len(scoped),
                total_downtime_us=sum(tree.dur_us for tree in scoped),
                phase_totals=phase_totals,
                latency=latency,
                dominant_phase=dominant,
                resume_gaps=len(gaps),
            )
        )
    return RecoveryDecomposition(trees=trees, scopes=scope_tables)


def recovery_forest(events: Iterable) -> List[SpanNode]:
    """The recovery trees as generic span nodes (for the walker)."""
    return collect_span_forest(
        events, names=(RECOVERY_SPAN, RECOVERY_PHASE)
    )


def crosscheck_recovery_slo(
    events: Iterable, slo_report, scopes: Optional[Sequence[str]] = None
) -> RecoveryDecomposition:
    """Assert that recovery spans and SLO windows tell one story.

    For every SLO scope (after the optional ``scopes`` filter): the
    scope's recovery-root durations must sum to its SLO downtime within
    the span-sum tolerance, one root per counted failover, each root
    matching one downtime window's bounds. Only closed windows are
    compared: an outage still open at the end of the trace has no
    recovery root by construction (the root is emitted at restoration).
    Raises ``AssertionError`` with a precise message on any mismatch
    and returns the decomposition for further checks.
    """
    decomposition = decompose_recoveries(events, scopes=scopes)
    by_scope: Dict[str, List[RecoveryTree]] = {}
    for tree in decomposition.trees:
        by_scope.setdefault(tree.scope, []).append(tree)
    for scope in slo_report.scopes:
        roots = by_scope.pop(scope.scope, [])
        assert len(roots) == scope.failovers, (
            f"scope {scope.label}: {len(roots)} recovery span(s) for "
            f"{scope.failovers} SLO failover(s)"
        )
        unmatched = [w for w in scope.windows if w[1] is not None]
        downtime_us = sum(max(0.0, end - start) for start, end in unmatched)
        root_sum = sum(root.dur_us for root in roots)
        tolerance = SPAN_SUM_ATOL + SPAN_SUM_RTOL * abs(downtime_us)
        assert abs(root_sum - downtime_us) <= tolerance, (
            f"scope {scope.label}: recovery roots sum to {root_sum}us, "
            f"SLO downtime is {downtime_us}us"
        )
        for root in sorted(roots, key=lambda r: r.start_us):
            match = next(
                (
                    window for window in unmatched
                    if abs(window[0] - root.start_us) <= tolerance
                    and abs(window[1] - root.end_us) <= tolerance
                ),
                None,
            )
            assert match is not None, (
                f"scope {scope.label}: recovery root "
                f"[{root.start_us}, {root.end_us}]us matches no SLO "
                f"downtime window in {list(scope.windows)}"
            )
            unmatched.remove(match)
    leftovers = {s: len(r) for s, r in by_scope.items() if r}
    assert not leftovers, (
        f"recovery spans recorded for scopes the SLO report does not "
        f"know: {leftovers}"
    )
    return decomposition
