"""Trace and metrics exporters.

Two formats, one source of truth:

* **JSONL** — one JSON object per line. Line types: ``meta`` (format
  version), ``event`` (a :class:`~repro.obs.trace.TraceEvent`), and an
  optional trailing ``metrics`` line holding a registry snapshot. The
  format round-trips losslessly: :func:`read_jsonl` rebuilds the exact
  event list, and :mod:`repro.obs.report` computes identical numbers
  from a reloaded file — asserted by the determinism tests.

* **Chrome ``trace_event``** — the JSON array format understood by
  ``chrome://tracing`` and https://ui.perfetto.dev. Components map to
  thread lanes (named via metadata events), instants to phase ``i``,
  spans to complete events (phase ``X``), so a failover renders as a
  takeover bar next to the router's retry dots.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import KIND_SPAN, TraceEvent

JSONL_FORMAT = "repro-trace-v1"


def stable_json(record: Dict[str, object]) -> str:
    """The canonical one-line encoding both JSONL formats are written in."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_jsonl(
    path: Union[str, Path],
    events: Iterable[TraceEvent],
    metrics: Optional[MetricsRegistry] = None,
) -> Path:
    """Write a trace (and optional metrics snapshot) as JSONL."""
    path = Path(path)
    lines = [stable_json({"type": "meta", "format": JSONL_FORMAT})]
    for event in events:
        record = {"type": "event"}
        record.update(event.to_dict())
        lines.append(stable_json(record))
    if metrics is not None:
        lines.append(
            stable_json({"type": "metrics", "snapshot": metrics.snapshot()})
        )
    path.write_text("\n".join(lines) + "\n")
    return path


def jsonl_records(path: Union[str, Path]) -> Iterator[Tuple[int, Dict]]:
    """``(line number, object)`` per non-blank line of either JSONL
    format. A line that is not one JSON object — what a file cut
    mid-write ends in — is a ``ValueError`` naming ``path:line``."""
    with open(path, "r", encoding="utf-8") as lines:
        for line_number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                record = error
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{line_number}: not a JSON object (truncated "
                    f"or corrupted file?): {record}"
                )
            yield line_number, record


def read_jsonl(
    path: Union[str, Path],
) -> Tuple[List[TraceEvent], Optional[Dict]]:
    """Reload a JSONL trace: ``(events, metrics_snapshot_or_None)``.
    The first record must be the :data:`JSONL_FORMAT` meta line — an
    empty file, or one that is not a trace, is a ``ValueError``."""
    events: List[TraceEvent] = []
    snapshot: Optional[Dict] = None
    records = jsonl_records(path)
    _, meta = next(records, (0, {}))
    if meta.get("type") != "meta":
        raise ValueError(f"{path}: missing {JSONL_FORMAT} meta line")
    if meta.get("format") != JSONL_FORMAT:
        raise ValueError(
            f"{path}: unknown trace format {meta.get('format')!r}"
        )
    for line_number, record in records:
        record_type = record.get("type")
        if record_type == "event":
            try:
                events.append(TraceEvent.from_dict(record))
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(
                    f"{path}:{line_number}: malformed event record: {error!r}"
                ) from None
        elif record_type == "metrics":
            snapshot = record.get("snapshot")
        else:
            raise ValueError(
                f"{path}:{line_number}: unknown record type {record_type!r}"
            )
    return events, snapshot


def chrome_trace_dict(events: Sequence[TraceEvent]) -> Dict[str, object]:
    """The Chrome ``trace_event`` JSON object for ``events``."""
    components = sorted({event.component for event in events})
    tids = {component: tid for tid, component in enumerate(components)}
    trace_events: List[Dict[str, object]] = []
    for component, tid in tids.items():
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": component},
            }
        )
    for event in events:
        record: Dict[str, object] = {
            "name": event.name,
            "cat": event.component,
            "pid": 0,
            "tid": tids[event.component],
            "ts": event.ts_us,
            "args": dict(event.attrs),
        }
        if event.kind == KIND_SPAN:
            record["ph"] = "X"
            record["dur"] = event.dur_us
        else:
            record["ph"] = "i"
            record["s"] = "t"  # instant scoped to its thread lane
        trace_events.append(record)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: Union[str, Path], events: Sequence[TraceEvent]
) -> Path:
    """Write ``events`` in Chrome ``trace_event`` format (open the file
    in chrome://tracing or Perfetto)."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace_dict(events), sort_keys=True))
    return path
