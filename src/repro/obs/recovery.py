"""Causal recovery spans: where a failover's downtime goes.

:mod:`repro.obs.slo` prices each crash — this module decomposes it.
Every ``fault.crash`` opens one :data:`RECOVERY_SPAN` whose children
tile the downtime window *exactly* (the auditor's
``recovery-span-tiles-downtime`` rule machine-checks the tiling against
the SLO windows):

* ``detect`` — crash to failure detection (the missed-heartbeat
  window, or zero-width for a quorum group whose loss is observed the
  instant a member drops).
* ``view`` — membership reconfiguration. Zero-width for a pair (the
  view change fires at the detection instant); the *whole* quorum-loss
  window for a leaderless group, whose outage is by construction a
  membership problem (no reachable quorum) rather than a data problem.
* ``promote`` — takeover/seniority promotion. Zero-width in the
  current model (promotion is a pointer swing), kept in the vocabulary
  for engines with real promotion work.
* ``catchup`` — redo-ring replay or mirror/undo restore, priced from
  the same measured quantities the takeover model charges
  (``bytes_restored / restore_bytes_per_us``); active pairs replay the
  ring *during* detection, so their catchup is zero-width and the
  drain cost rides on the root attrs (modeled through
  :class:`~repro.obs.spans.PhaseCostModel` counter deltas).

``resume`` — the gap from restoration to the first *served* commit —
is deliberately **not** a child: the root span must equal the SLO
downtime window to the microsecond, and the first served commit lands
at or after restoration. Instead the router emits one
:data:`RECOVERY_RESUME` instant per failover, causally linked to the
recovery root via ``trace_id``/``parent_id`` and to the first
post-failover commit tree via ``commit_trace_id``; the decomposition
in :mod:`repro.obs.critpath` reports the gap as its own column.

Zero-duration phases are skipped on emission (the commit-span
convention): every emitted child is a real contributor, and the tiling
invariant — contiguous children, first at the root's start, last at
the root's end — holds either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.spans import collect_span_forest, emit_span_tree
from repro.obs.trace import scope_of_component

#: Event name of one failover's parent recovery span.
RECOVERY_SPAN = "recovery.span"
#: Event name of one recovery phase child span.
RECOVERY_PHASE = "recovery.phase"
#: Event name of the first-served-commit instant after a failover.
RECOVERY_RESUME = "recovery.resume"

PHASE_DETECT = "detect"
PHASE_VIEW = "view"
PHASE_PROMOTE = "promote"
PHASE_CATCHUP = "catchup"
#: The recovery phases, in causal order (resume is an instant, not a
#: tiling child — see the module docstring).
RECOVERY_PHASES: Tuple[str, ...] = (
    PHASE_DETECT, PHASE_VIEW, PHASE_PROMOTE, PHASE_CATCHUP,
)

#: The resume column's name in decomposition tables.
RESUME_COLUMN = "resume"


@dataclass(frozen=True)
class RecoveryLink:
    """The causal handle one emitted recovery span leaves behind, so a
    later event (the router's first served completion) can link back."""

    trace_id: int
    span_id: int


class RecoverySpanRecorder:
    """Emits one failover's causal recovery tree through an observer.

    Unlike the commit recorder (which only knows durations and tiles
    backward from "now"), failover code knows every phase's absolute
    boundaries, so phases are recorded as explicit ``[start, end]``
    checkpoints in causal order; :meth:`finish` validates contiguity
    and emits the root plus the tiled, non-empty children. Recording
    is a pure observation — no model state is read back. The tree's
    component is ``cluster``, under the observer's scope.
    """

    def __init__(self, observer):
        self.observer = observer
        self._phases: List[Tuple[str, float, float, Dict[str, object]]] = []

    def phase(
        self, name: str, start_us: float, end_us: float, **attrs: object
    ) -> None:
        if name not in RECOVERY_PHASES:
            raise ValueError(f"unknown recovery phase {name!r}")
        if end_us < start_us:
            raise ValueError(
                f"recovery phase {name!r} ends before it starts "
                f"({end_us} < {start_us})"
            )
        if self._phases and start_us != self._phases[-1][2]:
            raise ValueError(
                f"recovery phase {name!r} starts at {start_us}, previous "
                f"phase ended at {self._phases[-1][2]} (children must tile)"
            )
        self._phases.append((name, start_us, end_us, dict(attrs)))

    def finish(self, **attrs: object) -> RecoveryLink:
        """Emit the tree; returns the link a resume event points at."""
        phases, self._phases = self._phases, []
        if not phases:
            raise ValueError("recovery span with no recorded phases")
        trace_id, span_id = emit_span_tree(
            self.observer, "cluster", RECOVERY_SPAN, RECOVERY_PHASE,
            phases[0][1], phases[-1][2], phases, attrs,
        )
        return RecoveryLink(trace_id=trace_id, span_id=span_id)


# -- analysis ----------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryTree:
    """One failover's reconstructed recovery decomposition."""

    trace_id: int
    span_id: int
    component: str
    scope: str
    start_us: float
    dur_us: float
    phases: Dict[str, float]
    attrs: Dict[str, object]
    #: Restoration -> first served commit, when a router recorded one.
    resume_gap_us: Optional[float] = None
    #: The first post-failover commit's trace id, when linked.
    resume_commit_trace_id: Optional[int] = None


def collect_recoveries(events: Iterable) -> List[RecoveryTree]:
    """Rebuild every failover's recovery tree from an event stream.

    The :data:`RECOVERY_SPAN` roots of the generic span forest
    (:func:`~repro.obs.spans.collect_span_forest` joins them to
    their :data:`RECOVERY_PHASE` children), each joined here to its
    :data:`RECOVERY_RESUME` instant through the ``parent_id`` attr;
    works on the live recorder's list or on events reloaded from JSONL.
    """
    # The one pass over the stream: the joins below see only the
    # handful of recovery-vocabulary events.
    vocabulary = (RECOVERY_SPAN, RECOVERY_PHASE, RECOVERY_RESUME)
    events = [event for event in events if event.name in vocabulary]
    resumes: Dict[int, object] = {}
    for event in events:
        if event.name == RECOVERY_RESUME:
            resumes.setdefault(int(event.attrs["parent_id"]), event)
    trees = []
    for root in collect_span_forest(events):
        if root.event.name != RECOVERY_SPAN:
            continue
        resume = resumes.get(root.span_id)
        gap = commit_trace_id = None
        if resume is not None:
            gap = resume.ts_us - root.event.end_us
            if "commit_trace_id" in resume.attrs:
                commit_trace_id = int(resume.attrs["commit_trace_id"])
        trees.append(
            RecoveryTree(
                span_id=root.span_id,
                scope=scope_of_component(root.event.component),
                resume_gap_us=gap,
                resume_commit_trace_id=commit_trace_id,
                **root.tree_fields(),
            )
        )
    return trees
