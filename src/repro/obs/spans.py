"""Causal per-commit spans and critical-path attribution.

The paper's argument is about *where a commit's time goes*: engine
work on the primary, write doubling onto the SAN, the commit barrier,
redo shipping through the ring, and the backup's apply (Tables 2/5/7).
This module turns those phases into a causal span tree per committed
transaction:

* one parent span named :data:`COMMIT_SPAN` per commit, carrying a
  fresh ``trace_id``, and
* one child span named :data:`COMMIT_PHASE` per non-empty phase,
  linked to the parent via ``parent_id`` and tiled end to end so the
  phase durations sum exactly to the parent's duration (the invariant
  :mod:`repro.obs.audit` machine-checks).

Phase durations are *modeled from measured quantities* of that exact
commit — operation-count deltas folded through the perf calibration
constants for CPU phases, packet-trace link-occupancy deltas for wire
phases — never wall-clock, so the spans are deterministic under a
seed and identical whether or not anything else is observed.

The emitting side is :class:`CommitSpanRecorder` (used by
:mod:`repro.replication.passive`, :mod:`repro.replication.active` and
the workload driver); the consuming side is
:func:`collect_commit_spans` / :func:`attribute_commits`, which
rebuild the trees from any event stream (live recorder or reloaded
JSONL) and summarize them per phase with p50/p95/p99. The recovery
vocabulary rides the same three functions — :func:`emit_span_tree`,
:func:`collect_span_forest`, :func:`fold_phases` — and tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import LatencySummary
from repro.obs.trace import KIND_SPAN, component_matches

#: Event name of a commit's parent span.
COMMIT_SPAN = "commit.span"
#: Event name of one phase child span.
COMMIT_PHASE = "commit.phase"

#: The commit pipeline's phases, in causal order. Passive replication
#: uses engine -> doubling -> barrier; active uses engine -> ship ->
#: apply (-> barrier only under 2-safe); standalone engines emit just
#: the engine phase; quorum writes emit quorum_wait (time to the W-th
#: acknowledgement) -> transfer (wire occupancy of the replica copies).
PHASE_ENGINE = "engine"
PHASE_DOUBLING = "doubling"
PHASE_BARRIER = "barrier"
PHASE_SHIP = "ship"
PHASE_APPLY = "apply"
PHASE_QUORUM_WAIT = "quorum_wait"
PHASE_TRANSFER = "transfer"
COMMIT_PHASES: Tuple[str, ...] = (
    PHASE_ENGINE, PHASE_DOUBLING, PHASE_BARRIER, PHASE_SHIP, PHASE_APPLY,
    PHASE_QUORUM_WAIT, PHASE_TRANSFER,
)

#: Tolerance of every "children sum to the parent" check. Phase
#: durations are accumulated floats, so exact equality is one rounding
#: away from a false alarm.
SPAN_SUM_RTOL = 1e-9
SPAN_SUM_ATOL = 1e-6

#: Engine-counter fields whose per-commit deltas the engine-phase cost
#: folds through the calibration (mirrors CostModel.engine_cpu_us).
_ENGINE_DELTA_FIELDS = (
    "set_ranges", "db_writes", "db_bytes_written", "undo_bytes_copied",
    "bytes_compared", "mallocs", "frees", "list_ops", "walk_steps",
    "bump_allocs", "array_pushes",
)


def counters_snapshot(counters) -> Tuple[int, ...]:
    """The engine-counter fields the phase model charges, as a cheap
    immutable snapshot taken at ``begin_transaction``."""
    return tuple(getattr(counters, name) for name in _ENGINE_DELTA_FIELDS)


class PhaseCostModel:
    """Converts one commit's measured deltas into modeled durations.

    Uses the same calibration constants as :class:`~repro.perf.
    costmodel.CostModel`, applied per commit instead of per run, so a
    run's phase attribution and its table-level cost breakdown tell
    one story. A replicated system does not know its workload, so a
    commit's benchmark logic is priced at the fallback base.
    """

    def __init__(self) -> None:
        # Imported late: importing repro.perf loads the whole
        # performance model, which only an observed run needs here.
        from repro.perf import calibration
        self.calibration = calibration

    def engine_us(self, before: Tuple[int, ...], after: Tuple[int, ...]) -> float:
        """Engine CPU time of one commit from its counter deltas."""
        c = self.calibration
        delta = dict(zip(_ENGINE_DELTA_FIELDS,
                         (b - a for b, a in zip(after, before))))
        return (
            c.FALLBACK_BASE_US
            + delta["set_ranges"] * c.SET_RANGE_US
            + delta["db_writes"] * c.DB_WRITE_US
            + delta["db_bytes_written"] * c.WRITE_BYTE_US
            + delta["undo_bytes_copied"] * c.COPY_BYTE_US
            + delta["bytes_compared"] * c.COMPARE_BYTE_US
            + delta["mallocs"] * c.MALLOC_US
            + delta["frees"] * c.FREE_US
            + delta["list_ops"] * c.LIST_OP_US
            + delta["walk_steps"] * c.WALK_STEP_US
            + delta["bump_allocs"] * c.BUMP_ALLOC_US
            + delta["array_pushes"] * c.ARRAY_PUSH_US
        )

    def apply_us(self, records: int, payload_bytes: int) -> float:
        """Backup CPU to apply one commit's redo records."""
        c = self.calibration
        return records * c.APPLY_RECORD_US + payload_bytes * c.APPLY_BYTE_US


class CommitSpanRecorder:
    """Emits one commit's causal span tree through an observer.

    Usage: accumulate ``(phase, dur_us)`` pairs in pipeline order via
    :meth:`phase`, then :meth:`finish` emits the parent span and the
    tiled children and resets for the next commit. Zero-duration
    phases are skipped (a 1-safe commit has no barrier wait), so every
    emitted child is a real contributor to the critical path.
    """

    def __init__(self, observer, component: str):
        self.observer = observer
        self.component = component
        self._phases: List[Tuple[str, float]] = []

    def phase(self, name: str, dur_us: float) -> None:
        if name not in COMMIT_PHASES:
            raise ValueError(f"unknown commit phase {name!r}")
        if dur_us < 0:
            raise ValueError(f"negative phase duration {dur_us}")
        if dur_us:
            self._phases.append((name, dur_us))

    def finish(self, **attrs: object) -> int:
        """Emit the tree ending at the observer's current time; returns
        the commit's trace id."""
        phases, self._phases = self._phases, []
        end_us = self.observer.now
        start_us = end_us - sum(dur for _, dur in phases)
        children = []
        cursor = start_us
        for name, dur in phases:
            children.append((name, cursor, cursor + dur, {}))
            cursor += dur
        trace_id, _ = emit_span_tree(
            self.observer, self.component, COMMIT_SPAN, COMMIT_PHASE,
            start_us, end_us, children, attrs,
        )
        return trace_id


def emit_span_tree(
    observer, component: str, root_name: str, child_name: str,
    start_us: float, end_us: float,
    children: Sequence[Tuple[str, float, float, Dict[str, object]]],
    attrs: Dict[str, object],
) -> Tuple[int, int]:
    """Emit one causal tree — the root span ``[start_us, end_us]`` plus
    its ``(phase, start_us, end_us, attrs)`` children — and return
    ``(trace_id, root span_id)``.

    The one emitter behind the commit and the recovery recorder: both
    hand it children that tile the root in causal order, and zero-width
    children are skipped, so every emitted child is a real contributor
    to the critical path.
    """
    trace_id = observer.new_trace_id()
    root_id = observer.linked_span(
        component, root_name, start_us, end_us, trace_id, **attrs
    )
    for phase, child_start, child_end, child_attrs in children:
        if child_end == child_start:
            continue
        observer.linked_span(
            component, child_name, child_start, child_end, trace_id,
            parent_id=root_id, phase=phase, **child_attrs,
        )
    return trace_id, root_id


# -- analysis ----------------------------------------------------------------


@dataclass
class SpanNode:
    """One span in a reconstructed forest."""

    event: object
    span_id: int
    parent_id: Optional[int]
    trace_id: Optional[int]
    children: List["SpanNode"] = field(default_factory=list)

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
            "start_us": self.event.ts_us,
            "dur_us": self.dur_us,
            "phases": phases,
            "attrs": {
                key: value for key, value in self.event.attrs.items()
                if key not in ("trace_id", "span_id")
            },
        }


def collect_span_forest(
    events: Iterable,
    names: Optional[Sequence[str]] = None,
) -> List[SpanNode]:
    """Rebuild the span forest from any event stream — *the* joiner:
    :func:`collect_commit_spans` and
    :func:`repro.obs.recovery.collect_recoveries` only map its roots
    onto their dataclasses.

    Every span event carrying a ``span_id`` becomes a node; nodes
    whose ``parent_id`` resolves become children (in event order),
    everything else is a root. ``names`` restricts which event names
    participate (e.g. ``("commit.span", "commit.phase")``).
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


def fold_phases(
    trees: Sequence, total: str
) -> Tuple[Dict[str, float], Dict[str, LatencySummary]]:
    """*The* fold of reconstructed trees (commit or recovery) into
    ``(phase totals, latency)``: each phase's durations summed in tree
    order, and a p50/p95/p99 :class:`~repro.obs.metrics.LatencySummary`
    per phase, led by the trees' end-to-end durations under ``total``."""
    phase_totals: Dict[str, float] = {}
    per_phase: Dict[str, List[float]] = {}
    for tree in trees:
        for phase, dur in tree.phases.items():
            phase_totals[phase] = phase_totals.get(phase, 0.0) + dur
            per_phase.setdefault(phase, []).append(dur)
    latency = {
        total: LatencySummary.from_values([tree.dur_us for tree in trees])
    }
    for phase, values in per_phase.items():
        latency[phase] = LatencySummary.from_values(values)
    return phase_totals, latency


@dataclass(frozen=True)
class CommitSpanTree:
    """One commit's reconstructed span tree."""

    trace_id: int
    component: str
    start_us: float
    dur_us: float
    phases: Dict[str, float]
    attrs: Dict[str, object]


def collect_commit_spans(events: Iterable) -> List[CommitSpanTree]:
    """Rebuild every commit's span tree from an event stream.

    The :data:`COMMIT_SPAN` roots of the generic span forest
    (:func:`collect_span_forest` joins them to their
    :data:`COMMIT_PHASE` children through the ``trace_id``/
    ``parent_id`` attrs); works on the live recorder's list or on
    events reloaded from JSONL.
    """
    return [
        CommitSpanTree(**root.tree_fields())
        for root in collect_span_forest(
            events, names=(COMMIT_SPAN, COMMIT_PHASE)
        )
        if root.event.name == COMMIT_SPAN
    ]


@dataclass
class PhaseAttribution:
    """Where the commits' time went, phase by phase.

    ``latency`` maps each phase (plus the ``"commit"`` end-to-end
    total) to a :class:`~repro.obs.metrics.LatencySummary` with
    p50/p95/p99 over the per-commit durations.
    """

    commits: int
    total_us: float
    phase_totals: Dict[str, float]
    latency: Dict[str, object] = field(default_factory=dict)

    def share(self, phase: str) -> float:
        if not self.total_us:
            return 0.0
        return self.phase_totals.get(phase, 0.0) / self.total_us

    def render(self) -> str:
        lines = []
        title = (
            f"Commit critical path ({self.commits} commits, "
            f"{self.total_us / 1000:.2f} ms total)"
        )
        lines.append(title)
        lines.append("=" * len(title))
        commit = self.latency.get("commit")
        if commit is not None and commit.count:
            lines.append(
                f"  end-to-end: mean {commit.mean_us:.2f} us, "
                f"p50 {commit.p50_us:.2f} us, p95 {commit.p95_us:.2f} us, "
                f"p99 {commit.p99_us:.2f} us"
            )
        for phase in COMMIT_PHASES:
            total = self.phase_totals.get(phase, 0.0)
            if not total:
                continue
            summary = self.latency[phase]
            lines.append(
                f"  {phase:>8}: {self.share(phase) * 100:5.1f}%  "
                f"(mean {summary.mean_us:.2f} us, p50 {summary.p50_us:.2f}, "
                f"p95 {summary.p95_us:.2f}, p99 {summary.p99_us:.2f}, "
                f"{summary.count} commits)"
            )
        if self.commits == 0:
            lines.append("  no commit spans in this trace")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "commits": self.commits,
            "total_us": self.total_us,
            "phase_totals_us": dict(self.phase_totals),
            "phase_shares": {
                phase: self.share(phase) for phase in self.phase_totals
            },
            "latency_us": {
                name: {
                    "count": summary.count,
                    "mean": summary.mean_us,
                    "p50": summary.p50_us,
                    "p95": summary.p95_us,
                    "p99": summary.p99_us,
                    "max": summary.max_us,
                }
                for name, summary in self.latency.items()
            },
        }


def attribute_commits(
    events: Iterable, scopes: Optional[List[str]] = None
) -> PhaseAttribution:
    """Summarize the commit span trees in ``events`` per phase.

    ``scopes`` restricts the attribution to the trees whose component
    any of its selectors matches (e.g. ``"shard.2"``, by
    :func:`~repro.obs.trace.component_matches`).
    """
    trees = collect_commit_spans(events)
    if scopes:
        trees = [
            tree for tree in trees
            if any(component_matches(tree.component, scope) for scope in scopes)
        ]
    phase_totals, latency = fold_phases(trees, "commit")
    return PhaseAttribution(
        commits=len(trees),
        total_us=sum(tree.dur_us for tree in trees),
        phase_totals=phase_totals,
        latency=latency,
    )
