"""Structured event tracing with simulated timestamps.

A :class:`TraceEvent` is a typed record of one thing that happened at
one simulated instant (``kind="instant"``) or over a span of simulated
time (``kind="span"``, with ``dur_us``). Events carry the emitting
*component* (a hierarchical dot name such as ``shard.2.cluster``) and
free-form ``attrs``; the :mod:`repro.obs.report` reconstructions and
the Chrome ``trace_event`` exporter both key off these fields, so the
naming scheme in DESIGN.md is part of the contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

KIND_INSTANT = "instant"
KIND_SPAN = "span"


def component_matches(component: str, prefix: str) -> bool:
    """The exact-or-dotted-prefix match every scope filter uses:
    ``shard.1`` selects ``shard.1`` and ``shard.1.cluster`` but not
    ``shard.10``."""
    return component == prefix or component.startswith(prefix + ".")


def scope_of_component(component: str) -> str:
    """The serving scope a ``<scope>.cluster`` component belongs to:
    ``shard.2.cluster`` -> ``shard.2``; a bare ``cluster`` (unsharded
    pair) -> ``""``, which downtime matching treats as "everything"."""
    scope = component.rsplit(".cluster", 1)[0]
    return "" if scope == component else scope


def scope_selected(scope: str, scopes: Optional[Sequence[str]]) -> bool:
    """Whether ``scope`` passes a ``--scope`` filter list (exact label
    or dotted prefix; None or empty selects everything)."""
    if not scopes:
        return True
    label = scope or "cluster"
    return any(component_matches(label, wanted) for wanted in scopes)


@dataclass(frozen=True)
class TraceEvent:
    """One recorded occurrence, in simulated microseconds."""

    ts_us: float
    component: str
    name: str
    kind: str = KIND_INSTANT
    dur_us: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in (KIND_INSTANT, KIND_SPAN):
            raise ValueError(f"unknown trace event kind {self.kind!r}")
        if self.kind == KIND_INSTANT and self.dur_us:
            raise ValueError("instant events carry no duration")
        if self.dur_us < 0:
            raise ValueError(f"negative span duration {self.dur_us}")

    @property
    def end_us(self) -> float:
        return self.ts_us + self.dur_us

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "ts_us": self.ts_us,
            "component": self.component,
            "name": self.name,
            "kind": self.kind,
        }
        if self.kind == KIND_SPAN:
            record["dur_us"] = self.dur_us
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "TraceEvent":
        return cls(
            ts_us=float(record["ts_us"]),
            component=str(record["component"]),
            name=str(record["name"]),
            kind=str(record.get("kind", KIND_INSTANT)),
            dur_us=float(record.get("dur_us", 0.0)),
            attrs=dict(record.get("attrs", {})),  # type: ignore[arg-type]
        )


class TraceRecorder:
    """Append-only in-memory event log shared by every scoped observer.

    Events are recorded in emission order, which for a discrete-event
    simulation is timestamp order per component and globally
    deterministic under a fixed seed — the exporter round-trip tests
    rely on exactly this.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)

    def instant(
        self, ts_us: float, component: str, name: str, **attrs: object
    ) -> TraceEvent:
        event = TraceEvent(ts_us, component, name, KIND_INSTANT, 0.0, attrs)
        self.events.append(event)
        return event

    def span(
        self,
        ts_us: float,
        dur_us: float,
        component: str,
        name: str,
        **attrs: object,
    ) -> TraceEvent:
        event = TraceEvent(ts_us, component, name, KIND_SPAN, dur_us, attrs)
        self.events.append(event)
        return event

    # -- selection -----------------------------------------------------------

    def select(
        self,
        name: Optional[str] = None,
        component_prefix: Optional[str] = None,
    ) -> List[TraceEvent]:
        """Events matching a name and/or a component prefix (dot-aware)."""
        return select_events(self.events, name, component_prefix)

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"TraceRecorder({len(self.events)} events)"


def select_events(
    events: Iterable[TraceEvent],
    name: Optional[str] = None,
    component_prefix: Optional[str] = None,
) -> List[TraceEvent]:
    """Filter ``events`` by exact name and/or component prefix."""
    selected = []
    for event in events:
        if name is not None and event.name != name:
            continue
        if component_prefix is not None and not component_matches(
            event.component, component_prefix
        ):
            continue
        selected.append(event)
    return selected


def completion_scope(event: TraceEvent) -> Optional[str]:
    """The serving scope a ``txn.complete`` names: clusters whose scopes
    are not shards (quorum groups) stamp an explicit ``scope``; shard
    completions keep the derived ``shard.N``."""
    if "scope" in event.attrs:
        return str(event.attrs["scope"])
    if "shard" in event.attrs:
        return f"shard.{int(event.attrs['shard'])}"
    return None


#: One outage: the ``fault.crash`` that opened it (None when a takeover
#: arrived with no crash on record) and the ``takeover`` span that closed
#: it (None while it is still open).
Outage = Tuple[Optional[TraceEvent], Optional[TraceEvent]]


def pair_outages(events: Iterable[TraceEvent]) -> Dict[str, List[Outage]]:
    """*The* outage pairing: per scope, in opening order, every
    ``fault.crash`` instant with the ``takeover`` span that closes it.

    A takeover closes the scope's most recently opened crash that is
    still open; a takeover with no open crash declares downtime over
    the span itself (detection to restoration); a crash no takeover
    follows stays open. Single pass.
    :func:`repro.obs.report.analyze_timeline` and
    :func:`downtime_windows` are both written on it; only
    :class:`~repro.obs.audit.TraceAuditor` pairs on its own — it is
    the independent checker these numbers are audited against.
    """
    outages: Dict[str, List[Outage]] = {}
    for event in events:
        if event.name not in ("fault.crash", "takeover"):
            continue
        scoped = outages.setdefault(scope_of_component(event.component), [])
        if event.name == "fault.crash":
            scoped.append((event, None))
            continue
        for index in range(len(scoped) - 1, -1, -1):
            crash, closed_by = scoped[index]
            if closed_by is None:
                scoped[index] = (crash, event)
                break
        else:
            scoped.append((None, event))
    return outages


#: (start, end) with ``end=None`` while the outage is still open.
Window = Tuple[float, Optional[float]]


def downtime_windows(
    events: Iterable[TraceEvent],
) -> Dict[str, List[Window]]:
    """Per-scope downtime windows: each outage of :func:`pair_outages`
    from its crash (the takeover's start when no crash was recorded) to
    its takeover's end (None while open) — the same windows the auditor
    derives online."""
    return {
        scope: [
            (
                crash.ts_us if crash is not None else takeover.ts_us,
                takeover.end_us if takeover is not None else None,
            )
            for crash, takeover in scoped
        ]
        for scope, scoped in pair_outages(events).items()
    }
