"""Trace-event selection for tests: which recorded events carry a name
and sit under a component (the dot-aware prefix every scope filter
uses)."""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.obs.trace import TraceEvent, component_matches


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
