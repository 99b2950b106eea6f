"""Downtime decomposition: where each scope's recovery time went.

:func:`repro.obs.recovery.collect_recoveries` rebuilds one
:class:`~repro.obs.recovery.RecoveryTree` per failover from the span
forest; this module folds them into per-scope tables — the dominant
phase, p50/p95/p99 per phase across repeated crashes, and the resume
gap to the first served commit. Attribution is by *summing tiled
children* (:func:`~repro.obs.spans.fold_phases`), never by walking
geometry: both recorders emit children that tile their root, and the
auditor's ``recovery-span-tiles-downtime`` rule is the one judge of
that tiling *and* of whether the roots tell the same story as the
SLO's downtime windows — a trace whose audit passes has exactly one
recovery root per closed window, with matching bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs.metrics import LatencySummary
from repro.obs.recovery import (
    RECOVERY_PHASES,
    RESUME_COLUMN,
    RecoveryTree,
    collect_recoveries,
)
from repro.obs.spans import fold_phases
from repro.obs.trace import scope_selected


@dataclass
class ScopeDecomposition:
    """Where one scope's recovery time went, across its failovers."""

    scope: str
    recoveries: int
    total_downtime_us: float
    phase_totals: Dict[str, float]
    #: p50/p95/p99 per phase (plus "recovery" end-to-end and "resume"),
    #: as :class:`~repro.obs.metrics.LatencySummary` values.
    latency: Dict[str, LatencySummary]
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
    trees = [
        tree for tree in collect_recoveries(events)
        if scope_selected(tree.scope, scopes)
    ]
    by_scope: Dict[str, List[RecoveryTree]] = {}
    for tree in trees:
        by_scope.setdefault(tree.scope, []).append(tree)
    scope_tables: List[ScopeDecomposition] = []
    for scope in sorted(by_scope):
        scoped = by_scope[scope]
        phase_totals, latency = fold_phases(scoped, "recovery")
        gaps = [
            tree.resume_gap_us for tree in scoped
            if tree.resume_gap_us is not None
        ]
        # The resume column rides second, ahead of the phases.
        latency = {
            "recovery": latency.pop("recovery"),
            RESUME_COLUMN: LatencySummary.from_values(gaps),
            **latency,
        }
        scope_tables.append(
            ScopeDecomposition(
                scope=scope,
                recoveries=len(scoped),
                total_downtime_us=sum(tree.dur_us for tree in scoped),
                phase_totals=phase_totals,
                latency=latency,
                dominant_phase=max(
                    phase_totals, key=phase_totals.get, default=None
                ),
                resume_gaps=len(gaps),
            )
        )
    return RecoveryDecomposition(trees=trees, scopes=scope_tables)
