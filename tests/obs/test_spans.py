"""Causal commit spans: recording, tiling, and phase attribution."""

import pytest

from repro.hardware.specs import MEMORY_CHANNEL_II
from repro.obs import NULL_OBSERVER, Observer, read_jsonl, write_jsonl
from repro.obs.spans import (
    COMMIT_PHASE,
    COMMIT_SPAN,
    PHASE_APPLY,
    PHASE_BARRIER,
    PHASE_DOUBLING,
    PHASE_ENGINE,
    PHASE_SHIP,
    CommitSpanRecorder,
    attribute_commits,
    collect_commit_spans,
)
from repro.replication.active import ActiveReplicatedSystem
from repro.replication.commit_safety import CommitSafety
from repro.replication.passive import PassiveReplicatedSystem
from repro.vista.api import EngineConfig
from repro.workloads.debit_credit import DebitCreditWorkload
from repro.workloads.driver import run_workload


def _run(system, seed=7, transactions=15):
    workload = DebitCreditWorkload(system.config.db_bytes, seed=seed)
    system.sync_initial()
    run_workload(system, workload, transactions)
    return system


# -- the recorder ------------------------------------------------------------


def test_recorder_emits_parent_and_tiled_children():
    observer = Observer()
    observer.bind_clock(lambda: 100.0)
    recorder = CommitSpanRecorder(observer, "replication.test")
    recorder.phase(PHASE_ENGINE, 3.0)
    recorder.phase(PHASE_SHIP, 1.5)
    recorder.phase(PHASE_APPLY, 0.5)
    trace_id = recorder.finish(wire_bytes=64)

    events = observer.recorder.events
    parent = next(e for e in events if e.name == COMMIT_SPAN)
    children = [e for e in events if e.name == COMMIT_PHASE]
    assert parent.attrs["trace_id"] == trace_id
    assert parent.dur_us == pytest.approx(5.0)
    assert parent.end_us == pytest.approx(100.0)
    assert parent.attrs["wire_bytes"] == 64
    assert len(children) == 3
    # Children tile the parent: each starts where the previous ended.
    cursor = parent.ts_us
    for child, (phase, dur) in zip(
        children, [(PHASE_ENGINE, 3.0), (PHASE_SHIP, 1.5), (PHASE_APPLY, 0.5)]
    ):
        assert child.attrs["parent_id"] == parent.attrs["span_id"]
        assert child.attrs["trace_id"] == trace_id
        assert child.attrs["phase"] == phase
        assert child.ts_us == pytest.approx(cursor)
        assert child.dur_us == pytest.approx(dur)
        cursor = child.end_us
    assert cursor == pytest.approx(parent.end_us)


def test_recorder_skips_zero_phases_and_resets():
    observer = Observer()
    recorder = CommitSpanRecorder(observer, "c")
    recorder.phase(PHASE_ENGINE, 2.0)
    recorder.phase(PHASE_BARRIER, 0.0)  # 1-safe: no barrier wait
    recorder.finish()
    children = [e for e in observer.recorder.events if e.name == COMMIT_PHASE]
    assert [c.attrs["phase"] for c in children] == [PHASE_ENGINE]
    # The second commit starts from an empty phase list.
    recorder.phase(PHASE_DOUBLING, 1.0)
    recorder.finish()
    trees = collect_commit_spans(observer.recorder.events)
    assert [t.phases for t in trees] == [
        {PHASE_ENGINE: 2.0}, {PHASE_DOUBLING: 1.0}
    ]


def test_recorder_rejects_bad_phases():
    recorder = CommitSpanRecorder(Observer(), "c")
    with pytest.raises(ValueError):
        recorder.phase("warp", 1.0)
    with pytest.raises(ValueError):
        recorder.phase(PHASE_ENGINE, -0.1)


def test_span_ids_are_unique_across_scopes():
    observer = Observer()
    a = CommitSpanRecorder(observer.scoped("shard.0"), "replication")
    b = CommitSpanRecorder(observer.scoped("shard.1"), "replication")
    a.phase(PHASE_ENGINE, 1.0)
    a.finish()
    b.phase(PHASE_ENGINE, 1.0)
    b.finish()
    ids = [
        e.attrs["span_id"] for e in observer.recorder.events
        if "span_id" in e.attrs
    ]
    assert len(ids) == len(set(ids))


# -- systems under load ------------------------------------------------------


def test_passive_commit_spans_tile_exactly():
    observer = Observer()
    system = _run(PassiveReplicatedSystem("v3", observer=observer))
    trees = collect_commit_spans(observer.recorder.events)
    assert len(trees) == 15
    for tree in trees:
        assert sum(tree.phases.values()) == pytest.approx(
            tree.dur_us, abs=1e-9)
        assert set(tree.phases) <= {PHASE_ENGINE, PHASE_DOUBLING, PHASE_BARRIER}
        assert tree.phases[PHASE_ENGINE] > 0
        assert tree.attrs["safety"] == "1-safe"
        assert tree.component == "replication.passive"


def test_active_commit_spans_have_ship_and_apply():
    observer = Observer()
    system = _run(ActiveReplicatedSystem(observer=observer))
    trees = collect_commit_spans(observer.recorder.events)
    assert len(trees) == 15
    for tree in trees:
        assert sum(tree.phases.values()) == pytest.approx(
            tree.dur_us, abs=1e-9)
        assert PHASE_SHIP in tree.phases
        assert PHASE_APPLY in tree.phases
        # 1-safe: no synchronous barrier phase.
        assert PHASE_BARRIER not in tree.phases
    assert system.redo_records_shipped > 0


def test_two_safe_commits_carry_a_barrier_phase():
    observer = Observer()
    _run(ActiveReplicatedSystem(safety=CommitSafety.TWO_SAFE, observer=observer))
    trees = collect_commit_spans(observer.recorder.events)
    for tree in trees:
        assert tree.attrs["safety"] == "2-safe"
        assert tree.phases[PHASE_BARRIER] == pytest.approx(
            2.0 * MEMORY_CHANNEL_II.latency_us)


def test_detached_system_records_nothing():
    system = _run(PassiveReplicatedSystem("v3"))
    assert system._spans is None
    assert system.observer is NULL_OBSERVER


# -- attribution -------------------------------------------------------------


def test_attribution_sums_and_shares():
    observer = Observer()
    _run(ActiveReplicatedSystem(observer=observer), transactions=10)
    attribution = attribute_commits(observer.recorder.events)
    assert attribution.commits == 10
    assert sum(attribution.phase_totals.values()) == pytest.approx(
        attribution.total_us
    )
    assert sum(
        attribution.share(p) for p in attribution.phase_totals
    ) == pytest.approx(1.0)
    commit = attribution.latency["commit"]
    assert commit.count == 10
    assert commit.p50_us <= commit.p95_us <= commit.p99_us <= commit.max_us
    rendered = attribution.render()
    assert "end-to-end" in rendered and "engine" in rendered
    payload = attribution.to_dict()
    assert payload["commits"] == 10
    assert set(payload["latency_us"]) == set(attribution.latency)


def test_attribution_filters_by_scopes():
    observer = Observer()
    for shard in range(2):
        scoped = observer.scoped(f"shard.{shard}")
        recorder = CommitSpanRecorder(scoped, "replication")
        recorder.phase(PHASE_ENGINE, 1.0 + shard)
        recorder.finish()
    only = attribute_commits(observer.recorder.events, scopes=["shard.1"])
    assert only.commits == 1
    assert only.total_us == pytest.approx(2.0)
    both = attribute_commits(observer.recorder.events)
    assert both.commits == 2


def test_empty_attribution_renders():
    attribution = attribute_commits([])
    assert attribution.commits == 0
    assert "no commit spans" in attribution.render()


def test_no_commit_time_gives_every_phase_a_zero_share():
    assert attribute_commits([]).share(PHASE_ENGINE) == 0.0


def test_spans_survive_jsonl_round_trip(tmp_path):
    observer = Observer()
    _run(PassiveReplicatedSystem("v1", observer=observer), transactions=8)
    path = tmp_path / "trace.jsonl"
    write_jsonl(path, observer.recorder.events)
    reloaded, _ = read_jsonl(path)
    original = collect_commit_spans(observer.recorder.events)
    round_tripped = collect_commit_spans(reloaded)
    assert round_tripped == original
