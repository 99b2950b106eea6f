"""SLO availability accounting from recorded traces.

The paper's availability story (Section 7) is qualitative: failover
takes tens of milliseconds, so a pair is "highly available". This
module makes it quantitative the way an operator would: fold every
downtime window (:func:`~repro.obs.trace.downtime_windows`, one per
paired crash/takeover) against the trace horizon into served-time
ratios, per shard and cluster-wide, and express them as "nines".

The numbers are only as trustworthy as the trace, which is why
:func:`compute_slo` accepts the :class:`~repro.obs.audit.AuditReport`
for the same trace: a report built over a trace the auditor rejected
carries ``audit_ok=False`` and says so when rendered — availability
claims over an inconsistent trace are not claims.

Horizon convention: the serving window is ``[0, horizon_us)`` with the
horizon defaulting to the last event timestamp in the trace, so a
trace that ends mid-outage counts the open downtime to its end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import (
    TraceEvent,
    Window,
    completion_scope,
    downtime_windows,
    scope_selected,
)

#: Availability of a scope with zero observed downtime renders as this
#: many nines rather than infinity: no finite trace proves more.
MAX_NINES = 9.0


def nines(availability: float) -> float:
    """Availability expressed as "nines" (0.999 -> 3.0), capped at
    :data:`MAX_NINES` because a finite trace cannot witness infinity."""
    if availability >= 1.0:
        return MAX_NINES
    if availability <= 0.0:
        return 0.0
    return min(MAX_NINES, -math.log10(1.0 - availability))


@dataclass(frozen=True)
class ScopeAvailability:
    """One scope's (shard's, or the whole pair's) serving record."""

    scope: str  # "shard.2", or "" for an unsharded pair
    horizon_us: float
    downtime_us: float
    failovers: int  # completed takeovers; an open outage is not one yet
    #: (start, end) per outage, clipped to the horizon; ``end`` is None
    #: for an outage still open when the trace ends.
    windows: Tuple[Window, ...] = ()

    @property
    def open_outage(self) -> bool:
        return any(end is None for _start, end in self.windows)

    @property
    def label(self) -> str:
        return self.scope or "cluster"

    @property
    def served_us(self) -> float:
        return max(0.0, self.horizon_us - self.downtime_us)

    @property
    def availability(self) -> float:
        if self.horizon_us <= 0:
            return 1.0
        return self.served_us / self.horizon_us

    @property
    def nines(self) -> float:
        return nines(self.availability)

    def to_dict(self) -> Dict[str, object]:
        return {
            "scope": self.label,
            "horizon_us": self.horizon_us,
            "downtime_us": self.downtime_us,
            "failovers": self.failovers,
            "availability": self.availability,
            "nines": self.nines,
            "windows_us": [list(window) for window in self.windows],
        }


@dataclass
class SloReport:
    """Availability per scope plus the cluster-wide roll-up."""

    horizon_us: float
    scopes: List[ScopeAvailability]
    audit_ok: Optional[bool] = None  # None: trace was not audited

    @property
    def cluster_availability(self) -> float:
        """Capacity-weighted availability: each scope serves an equal
        share, so the cluster's served fraction is the scope mean.
        This is how an N-shard cluster keeps (N-1)/N of its capacity
        through a single-shard outage."""
        if not self.scopes:
            return 1.0
        return sum(scope.availability for scope in self.scopes) / len(self.scopes)

    @property
    def cluster_nines(self) -> float:
        return nines(self.cluster_availability)

    @property
    def total_downtime_us(self) -> float:
        return sum(scope.downtime_us for scope in self.scopes)

    def render(self) -> str:
        title = (
            f"Availability (horizon {self.horizon_us / 1000:.2f} ms, "
            f"{len(self.scopes)} scopes)"
        )
        lines = [title, "=" * len(title)]
        for scope in self.scopes:
            lines.append(
                f"  {scope.label:>10}: {scope.availability * 100:8.4f}% "
                f"({scope.nines:.2f} nines), downtime "
                f"{scope.downtime_us / 1000:.2f} ms over "
                f"{scope.failovers} failover(s)"
                + (
                    ", outage open at the end of the trace"
                    if scope.open_outage else ""
                )
            )
        if not self.scopes:
            lines.append("  no serving scopes in this trace")
        lines.append(
            f"  cluster-wide: {self.cluster_availability * 100:.4f}% "
            f"({self.cluster_nines:.2f} nines)"
        )
        if self.audit_ok is True:
            lines.append("  trace audit: PASS — serving windows confirmed")
        elif self.audit_ok is False:
            lines.append(
                "  trace audit: FAIL — availability figures are NOT "
                "trustworthy (see the audit report)"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "horizon_us": self.horizon_us,
            "cluster_availability": self.cluster_availability,
            "cluster_nines": self.cluster_nines,
            "total_downtime_us": self.total_downtime_us,
            "audit_ok": self.audit_ok,
            "scopes": [scope.to_dict() for scope in self.scopes],
        }


def compute_slo(
    events: Sequence[TraceEvent],
    horizon_us: Optional[float] = None,
    audit_ok: Optional[bool] = None,
    scopes: Optional[Sequence[str]] = None,
) -> SloReport:
    """Fold a trace's downtime windows into an availability report.

    Scopes are the union of every serving scope that completed a
    transaction ("shard.N", or the explicit scope quorum completions
    carry) and every scope with an outage, so an always-up shard counts
    in the cluster roll-up with zero downtime. An outage still open at
    the end of the trace is charged from its crash to ``horizon_us``
    and kept in ``windows`` with a None end, but is not a failover.
    ``scopes`` restricts the report (and its cluster roll-up) to
    matching scopes — exact label or dotted prefix — so one trace
    holding both shard and quorum-group scopes can be reported per
    architecture.
    """
    if horizon_us is None:
        horizon_us = max((event.end_us for event in events), default=0.0)
    outages = downtime_windows(events)
    serving = {
        completion_scope(event)
        for event in events if event.name == "txn.complete"
    } - {None}
    scope_reports = []
    for scope in sorted(serving | set(outages)):
        if not scope_selected(scope, scopes):
            continue
        downtime = 0.0
        windows: List[Window] = []
        for start, end in outages.get(scope, []):
            if end is not None:
                end = min(end, horizon_us)
            downtime += max(0.0, (horizon_us if end is None else end) - start)
            windows.append((start, end))
        scope_reports.append(
            ScopeAvailability(
                scope=scope,
                horizon_us=horizon_us,
                downtime_us=downtime,
                failovers=sum(end is not None for _start, end in windows),
                windows=tuple(windows),
            )
        )
    return SloReport(
        horizon_us=horizon_us, scopes=scope_reports, audit_ok=audit_ok
    )
