"""Property-based invariants of the span joiner and the structural
trace differ.

Two claims:

* whatever the two recorders emit, the commit and recovery collectors
  report exactly the per-label child durations of the
  ``collect_span_forest`` root they are built on (and the recovery
  children sum to their root: the tiling every report attributes by);
  and
* a run structurally diffed against itself is always identical,
  across seeds — which is what makes a non-empty diff in CI evidence
  of a real change.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import Observer, TraceEvent
from repro.obs.diff import diff_events
from repro.obs.recovery import (
    RECOVERY_PHASES,
    RecoverySpanRecorder,
    collect_recoveries,
)
from repro.obs.spans import (
    COMMIT_PHASES,
    CommitSpanRecorder,
    collect_commit_spans,
    collect_span_forest,
)

# -- the collectors sit on the joiner ----------------------------------------

_durations = st.floats(0.0, 500.0, allow_nan=False)


@given(
    st.lists(st.tuples(st.sampled_from(COMMIT_PHASES), _durations),
             max_size=8),
    st.lists(st.tuples(st.sampled_from(RECOVERY_PHASES), _durations),
             min_size=1, max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_collectors_report_the_forest_roots_child_durations(commit, recovery):
    observer = Observer()
    observer.bind_clock(lambda: 10_000.0)
    commits = CommitSpanRecorder(observer, "shard.0.replication")
    for phase, dur in commit:
        commits.phase(phase, dur)
    commits.finish(txn=1)
    recoveries = RecoverySpanRecorder(observer.scoped("shard.0"))
    cursor = 100.0
    for phase, dur in recovery:
        recoveries.phase(phase, cursor, cursor + dur)
        cursor += dur
    recoveries.finish(node="a")
    events = observer.recorder.events

    def per_label(root):
        totals = {}
        for child in root.children:
            totals[child.label] = totals.get(child.label, 0.0) + child.dur_us
        return totals

    roots = {root.span_id: root for root in collect_span_forest(events)}
    assert len(roots) == 2  # every phase joined a root, none orphaned
    (commit_tree,) = collect_commit_spans(events)
    (recovery_tree,) = collect_recoveries(events)
    commit_root = next(
        r for r in roots.values() if r.event.name == "commit.span"
    )
    assert commit_tree.phases == per_label(commit_root)
    assert commit_tree.trace_id == commit_root.trace_id
    assert recovery_tree.phases == per_label(roots[recovery_tree.span_id])
    assert sum(recovery_tree.phases.values()) == pytest.approx(
        recovery_tree.dur_us, abs=1e-6
    )


# -- self-diff is always empty -----------------------------------------------


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_random_event_lists_self_diff_clean(seed):
    import random

    rng = random.Random(seed)
    events = []
    next_id = rng.randrange(1, 50)
    for index in range(rng.randrange(0, 40)):
        attrs = {}
        if rng.random() < 0.5:
            attrs["trace_id"] = next_id
            attrs["span_id"] = next_id + 1
            next_id += rng.randrange(1, 5)
        if rng.random() < 0.2:
            attrs["commit_trace_id"] = rng.randrange(1, next_id + 1)
        events.append(TraceEvent(
            float(index), f"c{rng.randrange(3)}", f"n{rng.randrange(4)}",
            attrs=attrs,
        ))
    diff = diff_events(events, events)
    assert diff.identical
    assert diff.first_divergence is None


# The real-run self-diff property (the series rides in the trace as
# series.sample events). Heavier than a unit test, so few examples by
# design.

@pytest.mark.parametrize("seed", [7, 42])
def test_experiment_self_diff_is_empty(seed):
    from repro.experiments.extension_sharding import failover_timeline

    outcome = failover_timeline(seed=seed)
    trace_diff = diff_events(outcome.trace_events, outcome.trace_events)
    assert trace_diff.identical
    assert any(e.name == "series.sample" for e in outcome.trace_events)
