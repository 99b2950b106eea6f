"""The recovery-span recorder and its trace-side reconstruction."""

import pytest

from repro.obs import Observer, TraceEvent
from repro.obs.recovery import (
    PHASE_CATCHUP,
    PHASE_DETECT,
    PHASE_PROMOTE,
    PHASE_VIEW,
    RECOVERY_PHASE,
    RECOVERY_PHASES,
    RECOVERY_RESUME,
    RECOVERY_SPAN,
    RecoverySpanRecorder,
    collect_recoveries,
    scope_of_component,
)
from repro.obs.trace import scope_selected


def _events_named(observer, name):
    return [e for e in observer.recorder.events if e.name == name]


def test_recorder_emits_root_and_tiling_children():
    observer = Observer()
    recorder = RecoverySpanRecorder(observer.scoped("shard.2"))
    recorder.phase(PHASE_DETECT, 1_000.0, 1_550.0, timeout_us=500.0)
    recorder.phase(PHASE_VIEW, 1_550.0, 1_550.0)
    recorder.phase(PHASE_PROMOTE, 1_550.0, 1_550.0)
    recorder.phase(PHASE_CATCHUP, 1_550.0, 15_531.0, bytes_restored=4096)
    link = recorder.finish(node="shard2/backup")

    roots = _events_named(observer, RECOVERY_SPAN)
    children = _events_named(observer, RECOVERY_PHASE)
    assert len(roots) == 1
    root = roots[0]
    assert root.ts_us == 1_000.0
    assert root.dur_us == 14_531.0
    assert root.attrs["node"] == "shard2/backup"
    assert root.attrs["trace_id"] == link.trace_id
    assert root.attrs["span_id"] == link.span_id
    # Zero-width phases (view, promote) are skipped on emission.
    assert [c.attrs["phase"] for c in children] == [
        PHASE_DETECT, PHASE_CATCHUP,
    ]
    assert all(c.attrs["parent_id"] == link.span_id for c in children)
    # The emitted children still tile the root exactly.
    assert children[0].ts_us == root.ts_us
    assert children[0].end_us == children[1].ts_us
    assert children[1].end_us == root.end_us


def test_recorder_rejects_bad_phases():
    recorder = RecoverySpanRecorder(Observer())
    with pytest.raises(ValueError, match="unknown recovery phase"):
        recorder.phase("restart", 0.0, 1.0)
    with pytest.raises(ValueError, match="ends before it starts"):
        recorder.phase(PHASE_DETECT, 10.0, 5.0)
    recorder.phase(PHASE_DETECT, 0.0, 10.0)
    with pytest.raises(ValueError, match="must tile"):
        recorder.phase(PHASE_CATCHUP, 12.0, 20.0)
    with pytest.raises(ValueError, match="no recorded phases"):
        RecoverySpanRecorder(Observer()).finish()


def test_phase_order_is_the_vocabulary_order():
    assert RECOVERY_PHASES == (
        PHASE_DETECT, PHASE_VIEW, PHASE_PROMOTE, PHASE_CATCHUP,
    )


def test_scope_of_component():
    assert scope_of_component("shard.2.cluster") == "shard.2"
    assert scope_of_component("group.1.cluster") == "group.1"
    assert scope_of_component("cluster") == ""


def test_collect_recoveries_joins_phases_and_resume():
    observer = Observer()
    recorder = RecoverySpanRecorder(observer.scoped("shard.0"))
    recorder.phase(PHASE_DETECT, 100.0, 150.0)
    recorder.phase(PHASE_CATCHUP, 150.0, 400.0, bytes_restored=64)
    link = recorder.finish(node="n0")
    observer.event_at(
        425.0, "router", RECOVERY_RESUME,
        trace_id=link.trace_id, parent_id=link.span_id,
        shard=0, commit_trace_id=77,
    )

    trees = collect_recoveries(observer.recorder.events)
    assert len(trees) == 1
    tree = trees[0]
    assert tree.scope == "shard.0"
    assert tree.start_us == 100.0
    assert tree.dur_us == 300.0
    assert tree.phases == {PHASE_DETECT: 50.0, PHASE_CATCHUP: 250.0}
    assert sum(tree.phases.values()) == tree.dur_us
    assert max(tree.phases, key=tree.phases.get) == PHASE_CATCHUP
    assert tree.resume_gap_us == 25.0
    assert tree.resume_commit_trace_id == 77


def test_collect_recoveries_scope_filter():
    observer = Observer()
    for shard in (0, 1):
        recorder = RecoverySpanRecorder(observer.scoped(f"shard.{shard}"))
        recorder.phase(PHASE_DETECT, 10.0, 20.0)
        recorder.finish()
    all_trees = collect_recoveries(observer.recorder.events)
    assert [t.scope for t in all_trees] == ["shard.0", "shard.1"]
    only_one = [t for t in all_trees if scope_selected(t.scope, ["shard.1"])]
    assert [t.scope for t in only_one] == ["shard.1"]


def test_collect_recoveries_survives_jsonl_roundtrip(tmp_path):
    from repro.obs import read_jsonl, write_jsonl

    observer = Observer()
    recorder = RecoverySpanRecorder(observer.scoped("shard.3"))
    recorder.phase(PHASE_DETECT, 5.0, 9.0)
    recorder.phase(PHASE_CATCHUP, 9.0, 21.0)
    recorder.finish(node="n3")
    path = tmp_path / "trace.jsonl"
    write_jsonl(path, observer.recorder.events)
    events, _ = read_jsonl(path)
    trees = collect_recoveries(events)
    assert len(trees) == 1
    assert trees[0].phases == {PHASE_DETECT: 4.0, PHASE_CATCHUP: 12.0}


def test_resume_without_commit_link_is_gap_only():
    observer = Observer()
    recorder = RecoverySpanRecorder(observer.scoped("shard.1"))
    recorder.phase(PHASE_DETECT, 0.0, 10.0)
    link = recorder.finish()
    observer.event_at(
        12.0, "router", RECOVERY_RESUME,
        trace_id=link.trace_id, parent_id=link.span_id, shard=1,
    )
    tree = collect_recoveries(observer.recorder.events)[0]
    assert tree.resume_gap_us == 2.0
    assert tree.resume_commit_trace_id is None
