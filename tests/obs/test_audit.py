"""The online trace auditor: every rule, broken and clean."""

import pytest

from repro.obs import Observer, TraceEvent, read_jsonl, write_jsonl
from repro.obs.audit import TraceAuditor, audit_events
from repro.replication.active import ActiveReplicatedSystem
from repro.replication.commit_safety import CommitSafety
from repro.replication.passive import PassiveReplicatedSystem
from repro.workloads.debit_credit import DebitCreditWorkload
from repro.workloads.driver import run_workload


def _ring_event(ts, produced, consumed, capacity=1024, name="ring.publish"):
    return TraceEvent(ts, "redo.producer", name, attrs={
        "produced": produced, "consumed": consumed, "capacity": capacity,
    })


def _rules(report):
    return sorted({violation.rule for violation in report.violations})


# -- ring rules --------------------------------------------------------------


def test_clean_ring_stream_passes():
    report = audit_events([
        _ring_event(1.0, 100, 0),
        _ring_event(2.0, 300, 100),
        _ring_event(3.0, 500, 500),
    ])
    assert report.ok
    assert report.events_seen == 3


def test_ring_overrun_is_flagged():
    report = audit_events([
        _ring_event(1.0, 100, 0),
        _ring_event(2.0, 2000, 100),  # lag 1900 > capacity 1024
    ])
    assert _rules(report) == ["ring-overrun"]
    violation = report.violations[0]
    assert violation.ts_us == 2.0
    assert "lapped" in violation.message
    assert violation.attrs["capacity"] == 1024


def test_ring_pointer_regressions_are_flagged():
    backwards_producer = audit_events([
        _ring_event(1.0, 500, 100),
        _ring_event(2.0, 400, 100),
    ])
    assert _rules(backwards_producer) == ["ring-monotone"]
    backwards_consumer = audit_events([
        _ring_event(1.0, 500, 400),
        _ring_event(2.0, 600, 300),
    ])
    assert _rules(backwards_consumer) == ["ring-monotone"]
    consumer_ahead = audit_events([_ring_event(1.0, 100, 200)])
    assert _rules(consumer_ahead) == ["ring-monotone"]


def test_lag_bound_is_opt_in():
    events = [_ring_event(1.0, 900, 100)]  # lag 800 fits capacity
    assert audit_events(events).ok
    bounded = audit_events(events, max_lag_bytes=500)
    assert _rules(bounded) == ["lag-bound"]
    assert bounded.violations[0].attrs == {"lag": 800, "bound": 500}


def test_ring_apply_events_share_the_pointer_checks():
    report = audit_events([
        TraceEvent(1.0, "redo.applier", "ring.apply", attrs={
            "produced": 100, "consumed": 300, "capacity": 1024,
        }),
    ])
    assert _rules(report) == ["ring-monotone"]


# -- commit ordering ---------------------------------------------------------


def test_two_safe_commit_with_lag_is_a_lost_commit_window():
    report = audit_events([
        TraceEvent(5.0, "replication.active", "commit", attrs={
            "safety": "2-safe", "ring_lag_bytes": 96,
        }),
    ])
    assert _rules(report) == ["commit-ordering"]
    assert report.commits_checked == 1
    assert "unapplied" in report.violations[0].message


def test_one_safe_commit_with_lag_is_allowed():
    report = audit_events([
        TraceEvent(5.0, "replication.active", "commit", attrs={
            "safety": "1-safe", "ring_lag_bytes": 96,
        }),
        TraceEvent(6.0, "replication.passive", "commit", attrs={
            "safety": "1-safe",
        }),
    ])
    assert report.ok
    assert report.commits_checked == 2


# -- epochs ------------------------------------------------------------------


def test_non_monotone_view_id_is_flagged():
    report = audit_events([
        TraceEvent(1.0, "membership", "view.change", attrs={"view_id": 2}),
        TraceEvent(2.0, "membership", "view.change", attrs={"view_id": 2}),
    ])
    assert _rules(report) == ["epoch-monotone"]


def test_non_monotone_service_epoch_is_flagged():
    report = audit_events([
        TraceEvent(1.0, "shard.0.cluster", "service.restored",
                   attrs={"epoch": 3}),
        TraceEvent(2.0, "shard.0.cluster", "service.restored",
                   attrs={"epoch": 2}),
    ])
    assert _rules(report) == ["epoch-monotone"]


def test_epochs_are_tracked_per_component():
    report = audit_events([
        TraceEvent(1.0, "shard.0.cluster", "service.restored",
                   attrs={"epoch": 5}),
        TraceEvent(2.0, "shard.1.cluster", "service.restored",
                   attrs={"epoch": 2}),
    ])
    assert report.ok


# -- downtime windows --------------------------------------------------------


def _crash(ts, scope="shard.1"):
    return TraceEvent(ts, f"{scope}.cluster", "fault.crash",
                      attrs={"node": "p"})


def _takeover(detected, restored, scope="shard.1"):
    return TraceEvent(detected, f"{scope}.cluster", "takeover", kind="span",
                      dur_us=restored - detected, attrs={"bytes_restored": 1})


def _complete(ts, shard=1):
    return TraceEvent(ts, "router", "txn.complete",
                      attrs={"shard": shard, "latency_us": 1.0})


def test_completion_inside_downtime_is_flagged():
    report = audit_events([
        _crash(100.0),
        _complete(150.0, shard=1),  # inside the open window
        _takeover(200.0, 400.0),
    ])
    assert _rules(report) == ["downtime-completion"]
    assert report.violations[0].attrs["scope"] == "shard.1"


def test_other_shards_complete_freely_during_downtime():
    report = audit_events([
        _crash(100.0),
        _complete(150.0, shard=0),
        _takeover(200.0, 400.0),
        _complete(500.0, shard=1),  # after restoration
    ])
    assert report.ok


def test_unsharded_downtime_blocks_all_completions():
    report = audit_events([
        _crash(100.0, scope=""),
        _complete(150.0, shard=3),
    ])
    # A bare-"cluster" crash declares the whole service down.
    assert _rules(report) == ["downtime-completion"]


def test_completion_before_crash_is_fine():
    report = audit_events([
        _complete(50.0, shard=1),
        _crash(100.0),
        _takeover(200.0, 400.0),
    ])
    assert report.ok


# -- span tiling -------------------------------------------------------------


def _span_pair(parent_dur, child_durs):
    events = [TraceEvent(0.0, "replication.passive", "commit.span",
                         kind="span", dur_us=parent_dur,
                         attrs={"trace_id": 1, "span_id": 10})]
    cursor = 0.0
    for dur in child_durs:
        events.append(TraceEvent(cursor, "replication.passive",
                                 "commit.phase", kind="span", dur_us=dur,
                                 attrs={"trace_id": 1, "span_id": 11,
                                        "parent_id": 10, "phase": "engine"}))
        cursor += dur
    return events


def test_span_sum_mismatch_is_flagged():
    report = audit_events(_span_pair(10.0, [3.0, 3.0]))
    assert _rules(report) == ["span-sum"]
    assert report.spans_checked == 1


def test_span_sum_within_tolerance_passes():
    report = audit_events(_span_pair(6.0, [3.0, 3.0]))
    assert report.ok


def test_orphan_phase_child_is_flagged():
    orphan = TraceEvent(0.0, "c", "commit.phase", kind="span", dur_us=1.0,
                        attrs={"trace_id": 1, "span_id": 2, "parent_id": 99,
                               "phase": "engine"})
    report = audit_events([orphan])
    assert _rules(report) == ["span-sum"]
    assert "unknown parent" in report.violations[0].message


# -- real traces, streaming, files -------------------------------------------


def _driven_events(system, transactions=12, seed=5):
    workload = DebitCreditWorkload(system.config.db_bytes, seed=seed)
    system.sync_initial()
    run_workload(system, workload, transactions)
    return list(system.observer.recorder.events)


@pytest.mark.parametrize("safety", [CommitSafety.ONE_SAFE,
                                    CommitSafety.TWO_SAFE])
def test_active_system_trace_is_clean(safety):
    observer = Observer()
    events = _driven_events(
        ActiveReplicatedSystem(safety=safety, observer=observer)
    )
    report = audit_events(events)
    assert report.ok, report.render()
    assert report.commits_checked == 12
    assert report.spans_checked == 12


def test_passive_system_trace_is_clean():
    observer = Observer()
    events = _driven_events(PassiveReplicatedSystem("v3", observer=observer))
    report = audit_events(events)
    assert report.ok, report.render()


def test_streaming_feed_matches_batch():
    observer = Observer()
    events = _driven_events(ActiveReplicatedSystem(observer=observer))
    auditor = TraceAuditor()
    for event in events:
        auditor.feed(event)
    streamed = auditor.finish()
    batch = audit_events(events)
    assert streamed.to_dict() == batch.to_dict()


def test_audit_trace_file_round_trip(tmp_path):
    observer = Observer()
    events = _driven_events(ActiveReplicatedSystem(observer=observer))
    # Seeded overrun: both pointers keep advancing past the real run's
    # (so monotonicity holds) but the lag explodes past the capacity.
    events.append(_ring_event(99.0, 10_000_000, 9_000_000))
    path = tmp_path / "broken.jsonl"
    write_jsonl(path, events)
    report = audit_events(read_jsonl(path)[0])
    assert not report.ok
    assert _rules(report) == ["ring-overrun"]
    rendered = report.render()
    assert "FAIL" in rendered and "ring-overrun" in rendered
    payload = report.to_dict()
    assert payload["ok"] is False
    assert payload["violations"][0]["rule"] == "ring-overrun"
