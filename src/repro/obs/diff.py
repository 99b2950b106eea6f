"""Structural cross-run diffing of recorded traces and series.

Byte-diffing two runs' JSONL answers *whether* they diverged;
this module answers *where* and *by how much*. Two runs of the same
experiment allocate causal ids in the same global order, but a code
change that adds one span shifts every later id — so events are first
**canonicalized**: every causal id attr is renumbered by order of
first appearance, making the comparison purely structural. Then:

* **first-divergence localization** — the earliest event index where
  the runs disagree, with a field-level account of the disagreement
  (timestamp drift, attr change, added/removed event);
* **per-phase cost deltas** — commit-pipeline and recovery-phase
  totals side by side, the numbers a CI regression gate actually
  wants (a refactor that moved 200us from ``ship`` to ``apply`` shows
  up here even when every event still matches structurally);
* **series support** — ``repro-series-v1`` files diff row by row,
  column by column.

A run diffed against itself reports zero divergences — the property
suite holds that across seeds and job counts, which is what makes a
non-empty diff in CI evidence of a real change.

Usage::

    python -m repro.obs.report current.jsonl --diff baseline.jsonl
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.critpath import decompose_recoveries
from repro.obs.export import read_jsonl
from repro.obs.series import SeriesFrame, is_series_file
from repro.obs.spans import attribute_commits
from repro.obs.trace import TraceEvent

#: Attrs carrying causal ids, renumbered during canonicalization (the
#: same vocabulary the parallel merge renumbers in global order).
CANONICAL_ID_ATTRS: Tuple[str, ...] = (
    "trace_id", "span_id", "parent_id", "commit_trace_id",
)


def canonicalize_events(
    events: Sequence[TraceEvent],
) -> List[TraceEvent]:
    """Renumber every causal id by order of first appearance.

    Two traces with identical structure but shifted id allocation
    canonicalize to identical event lists; a trace whose ids are
    already dense and in allocation order (every run of this repo)
    is a fixed point.
    """
    id_map: Dict[int, int] = {}
    out: List[TraceEvent] = []
    for event in events:
        attrs = event.attrs
        if attrs and any(key in attrs for key in CANONICAL_ID_ATTRS):
            new_attrs = dict(attrs)
            for key in CANONICAL_ID_ATTRS:
                if key in new_attrs:
                    local = int(new_attrs[key])
                    if local not in id_map:
                        id_map[local] = len(id_map) + 1
                    new_attrs[key] = id_map[local]
            event = replace(event, attrs=new_attrs)
        out.append(event)
    return out


@dataclass(frozen=True)
class Divergence:
    """One localized disagreement between baseline and current."""

    index: int
    field: str
    baseline: object
    current: object

    def __str__(self) -> str:
        return (
            f"#{self.index} {self.field}: "
            f"{self.baseline!r} -> {self.current!r}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "field": self.field,
            "baseline": self.baseline,
            "current": self.current,
        }


@dataclass
class TraceDiff:
    """The structural diff of two runs."""

    kind: str  # "trace" or "series"
    baseline_count: int
    current_count: int
    divergences: List[Divergence] = field(default_factory=list)
    truncated: bool = False
    #: phase -> (baseline_us, current_us) for commit and recovery phases.
    phase_deltas: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    @property
    def identical(self) -> bool:
        return (
            not self.divergences
            and self.baseline_count == self.current_count
        )

    @property
    def first_divergence(self) -> Optional[int]:
        if self.divergences:
            return self.divergences[0].index
        if self.baseline_count != self.current_count:
            return min(self.baseline_count, self.current_count)
        return None

    def render(self) -> str:
        unit = "events" if self.kind == "trace" else "samples"
        if self.identical:
            title = (
                f"Trace diff: IDENTICAL — {self.baseline_count} {unit}, "
                f"zero divergences"
            )
            return "\n".join([title, "=" * len(title)])
        title = (
            f"Trace diff: DIVERGED — baseline {self.baseline_count} "
            f"{unit}, current {self.current_count} {unit}, first "
            f"divergence at #{self.first_divergence}"
        )
        lines = [title, "=" * len(title)]
        for divergence in self.divergences:
            lines.append(f"  {divergence}")
        if self.truncated:
            lines.append("  ... (further divergences truncated)")
        changed = {
            phase: (old, new)
            for phase, (old, new) in self.phase_deltas.items()
            if old != new
        }
        if changed:
            lines.append("  per-phase cost deltas:")
            for phase in sorted(changed):
                old, new = changed[phase]
                lines.append(
                    f"    {phase:>12}: {old:.2f}us -> {new:.2f}us "
                    f"({new - old:+.2f}us)"
                )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "identical": self.identical,
            "baseline_count": self.baseline_count,
            "current_count": self.current_count,
            "first_divergence": self.first_divergence,
            "divergences": [d.to_dict() for d in self.divergences],
            "truncated": self.truncated,
            "phase_deltas_us": {
                phase: {"baseline": old, "current": new, "delta": new - old}
                for phase, (old, new) in sorted(self.phase_deltas.items())
            },
        }


def _phase_totals(events: Sequence[TraceEvent]) -> Dict[str, float]:
    """Commit-pipeline and recovery-phase totals, namespaced so the
    two vocabularies cannot collide in one delta table."""
    totals: Dict[str, float] = {}
    commits = attribute_commits(events)
    for phase, value in commits.phase_totals.items():
        totals[f"commit.{phase}"] = value
    recovery = decompose_recoveries(events)
    for scope in recovery.scopes:
        for phase, value in scope.phase_totals.items():
            key = f"recovery.{phase}"
            totals[key] = totals.get(key, 0.0) + value
    return totals


def diff_events(
    baseline: Sequence[TraceEvent],
    current: Sequence[TraceEvent],
    max_divergences: int = 20,
) -> TraceDiff:
    """Structurally diff two event lists (canonical id alignment)."""
    a = canonicalize_events(baseline)
    b = canonicalize_events(current)
    diff = TraceDiff(
        kind="trace", baseline_count=len(a), current_count=len(b)
    )
    for index in range(min(len(a), len(b))):
        if a[index] == b[index]:
            continue
        fields_a, fields_b = asdict(a[index]), asdict(b[index])
        for name in fields_a:
            if fields_a[name] != fields_b[name]:
                diff.divergences.append(Divergence(
                    index=index, field=name,
                    baseline=fields_a[name], current=fields_b[name],
                ))
        if len(diff.divergences) >= max_divergences:
            diff.truncated = True
            break
    if not diff.truncated and len(a) != len(b):
        index = min(len(a), len(b))
        baseline_side, current_side = (
            f"{side[index].component}/{side[index].name}"
            if len(side) > index else "(absent)"
            for side in (a, b)
        )
        diff.divergences.append(Divergence(
            index=index, field="presence",
            baseline=baseline_side, current=current_side,
        ))
    totals_a = _phase_totals(baseline)
    totals_b = _phase_totals(current)
    for phase in sorted(set(totals_a) | set(totals_b)):
        diff.phase_deltas[phase] = (
            totals_a.get(phase, 0.0), totals_b.get(phase, 0.0)
        )
    return diff


def diff_series(
    baseline, current, max_divergences: int = 20
) -> TraceDiff:
    """Diff two :class:`~repro.obs.series.SeriesFrame`s row by row."""
    diff = TraceDiff(
        kind="series", baseline_count=len(baseline),
        current_count=len(current),
    )
    names_a, names_b = sorted(baseline.names), sorted(current.names)
    if names_a != names_b:
        diff.divergences.append(Divergence(
            index=0, field="columns", baseline=names_a, current=names_b,
        ))
        return diff
    times_a, times_b = baseline.times_us, current.times_us
    columns = {name: (baseline.values(name), current.values(name))
               for name in names_a}
    for index in range(min(len(times_a), len(times_b))):
        if times_a[index] != times_b[index]:
            diff.divergences.append(Divergence(
                index=index, field="ts_us",
                baseline=times_a[index], current=times_b[index],
            ))
        for name in names_a:
            col_a, col_b = columns[name]
            if col_a[index] != col_b[index]:
                diff.divergences.append(Divergence(
                    index=index, field=name,
                    baseline=col_a[index], current=col_b[index],
                ))
        if len(diff.divergences) >= max_divergences:
            diff.truncated = True
            break
    if not diff.truncated and len(times_a) != len(times_b):
        diff.divergences.append(Divergence(
            index=min(len(times_a), len(times_b)), field="presence",
            baseline=f"{len(times_a)} samples",
            current=f"{len(times_b)} samples",
        ))
    return diff


def diff_files(baseline_path: str, current_path: str) -> TraceDiff:
    """Diff two recorded files, sniffing ``repro-trace-v1`` vs
    ``repro-series-v1`` from the meta line (both must agree)."""
    series_a = is_series_file(baseline_path)
    series_b = is_series_file(current_path)
    if series_a != series_b:
        raise ValueError(
            f"cannot diff a series file against a trace file "
            f"({baseline_path} vs {current_path})"
        )
    if series_a:
        return diff_series(
            SeriesFrame.read_jsonl(baseline_path),
            SeriesFrame.read_jsonl(current_path),
        )
    events_a, _ = read_jsonl(baseline_path)
    events_b, _ = read_jsonl(current_path)
    return diff_events(events_a, events_b)
