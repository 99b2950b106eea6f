"""Trace and metrics exporters.

Two formats, one source of truth:

* **JSONL** — one JSON object per line. Line types: ``meta`` (format
  version), ``event`` (a :class:`~repro.obs.trace.TraceEvent`), an
  optional ``metrics`` line holding a registry snapshot, and a closing
  ``end`` line holding the event count and a sha256 over the bytes of
  every line before it. The format round-trips losslessly:
  :func:`read_jsonl` rebuilds the exact event list, and
  :mod:`repro.obs.report` computes identical numbers from a reloaded
  file — asserted by the determinism tests. A file cut short or
  changed anywhere fails the ``end`` check, so it cannot read as a
  whole, shorter run. The sampled time series rides in the trace as
  ``series.sample`` events; it has no file format of its own.

* **Chrome ``trace_event``** — the JSON array format understood by
  ``chrome://tracing`` and https://ui.perfetto.dev. Components map to
  thread lanes (named via metadata events), instants to phase ``i``,
  spans to complete events (phase ``X``), so a failover renders as a
  takeover bar next to the router's retry dots.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import KIND_SPAN, TraceEvent

JSONL_FORMAT = "repro-trace-v1"


def write_jsonl(
    path: Union[str, Path],
    events: Iterable[TraceEvent],
    metrics: Optional[MetricsRegistry] = None,
) -> Path:
    """Write a trace (and optional metrics snapshot) as JSONL, closed
    by the ``end`` record :func:`read_jsonl` checks."""
    path = Path(path)
    records: List[Dict[str, object]] = [
        {"type": "meta", "format": JSONL_FORMAT}
    ]
    records.extend({"type": "event", **event.to_dict()} for event in events)
    count = len(records) - 1
    if metrics is not None:
        records.append({"type": "metrics", "snapshot": metrics.snapshot()})
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    body = "".join(encode(record) + "\n" for record in records).encode()
    end = {"type": "end", "events": count,
           "sha256": hashlib.sha256(body).hexdigest()}
    path.write_bytes(body + (encode(end) + "\n").encode())
    return path


def read_jsonl(
    path: Union[str, Path],
) -> Tuple[List[TraceEvent], Optional[Dict]]:
    """Reload a JSONL trace: ``(events, metrics_snapshot_or_None)``.

    The first record must be the :data:`JSONL_FORMAT` meta line and the
    last the ``end`` record, whose count and digest must match what
    precedes it. Anything else — an empty file, one that is not a trace,
    a line that is not one JSON object, a file cut short or changed
    anywhere — is a ``ValueError``, naming ``path:line`` where there is
    a line to name."""
    events: List[TraceEvent] = []
    snapshot: Optional[Dict] = None
    digest = hashlib.sha256()
    ended = False
    line_number = 0
    with open(path, "rb") as lines:
        for line_number, line in enumerate(lines, start=1):
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError as error:  # bad JSON or bad UTF-8
                record = error
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{line_number}: not a JSON object (truncated "
                    f"or corrupted file?): {record}"
                )
            record_type = record.get("type")
            if line_number == 1:
                if record_type != "meta":
                    raise ValueError(f"{path}: missing {JSONL_FORMAT} meta line")
                if record.get("format") != JSONL_FORMAT:
                    raise ValueError(
                        f"{path}: unknown trace format {record.get('format')!r}"
                    )
            elif ended:
                raise ValueError(f"{path}:{line_number}: data after the end record")
            elif record_type == "event":
                try:
                    events.append(TraceEvent.from_dict(record))
                except (KeyError, TypeError, ValueError) as error:
                    raise ValueError(
                        f"{path}:{line_number}: malformed event record: "
                        f"{error!r}"
                    ) from None
            elif record_type == "metrics":
                snapshot = record.get("snapshot")
            elif record_type == "end":
                expected = {"type": "end", "events": len(events),
                            "sha256": digest.hexdigest()}
                if record != expected or not line.endswith(b"\n"):
                    raise ValueError(
                        f"{path}:{line_number}: end record {record} does not "
                        f"match the {len(events)} events and sha256 "
                        f"{expected['sha256']} before it (corrupted file?)"
                    )
                ended = True
            else:
                raise ValueError(
                    f"{path}:{line_number}: unknown record type {record_type!r}"
                )
            digest.update(line)
    if line_number == 0:
        raise ValueError(f"{path}: missing {JSONL_FORMAT} meta line")
    if not ended:
        raise ValueError(
            f"{path}: no end record after line {line_number} (truncated "
            f"file?)"
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
