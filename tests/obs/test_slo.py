"""SLO availability accounting: nines, scopes, and audit coupling."""

import pytest

from repro.obs import Observer, TraceEvent, read_jsonl, write_jsonl
from repro.obs.audit import audit_events
from repro.obs.report import analyze_timeline
from repro.obs.slo import MAX_NINES, ScopeAvailability, compute_slo, nines
from repro.obs.trace import downtime_windows
from repro.quorum.cluster import QuorumCluster
from repro.quorum.workload import QuorumWorkload
from repro.shard.router import Router


def _crash(ts, scope="shard.1"):
    return TraceEvent(ts, f"{scope}.cluster", "fault.crash",
                      attrs={"node": "p"})


def _takeover(detected, restored, scope="shard.1"):
    return TraceEvent(detected, f"{scope}.cluster", "takeover", kind="span",
                      dur_us=restored - detected, attrs={"bytes_restored": 7})


def _complete(ts, shard):
    return TraceEvent(ts, "router", "txn.complete",
                      attrs={"shard": shard, "latency_us": 1.0})


def test_nines_math():
    assert nines(0.9) == pytest.approx(1.0)
    assert nines(0.999) == pytest.approx(3.0)
    assert nines(1.0) == MAX_NINES
    assert nines(0.0) == 0.0
    assert nines(-0.5) == 0.0


def test_scope_availability_derivations():
    scope = ScopeAvailability("shard.2", horizon_us=10_000.0,
                              downtime_us=100.0, failovers=1,
                              windows=((500.0, 600.0),))
    assert scope.label == "shard.2"
    assert scope.served_us == 9_900.0
    assert scope.availability == pytest.approx(0.99)
    assert scope.nines == pytest.approx(2.0)
    payload = scope.to_dict()
    assert payload["windows_us"] == [[500.0, 600.0]]


def test_compute_slo_charges_downtime_to_the_crashed_shard():
    events = [
        _complete(100.0, 0), _complete(100.0, 1),
        _crash(2_000.0),
        _takeover(2_500.0, 4_000.0),
        _complete(5_000.0, 0), _complete(5_000.0, 1),
        _complete(10_000.0, 0), _complete(10_000.0, 1),
    ]
    report = compute_slo(events)
    assert report.horizon_us == 10_000.0
    by_scope = {s.scope: s for s in report.scopes}
    assert set(by_scope) == {"shard.0", "shard.1"}
    assert by_scope["shard.0"].downtime_us == 0.0
    assert by_scope["shard.0"].availability == 1.0
    # Downtime runs crash -> restoration, not detection -> restoration.
    assert by_scope["shard.1"].downtime_us == pytest.approx(2_000.0)
    assert by_scope["shard.1"].availability == pytest.approx(0.8)
    assert report.cluster_availability == pytest.approx(0.9)
    assert report.total_downtime_us == pytest.approx(2_000.0)


def test_explicit_horizon_clamps_downtime():
    events = [_crash(8_000.0), _takeover(8_500.0, 12_000.0)]
    report = compute_slo(events, horizon_us=10_000.0)
    scope = report.scopes[0]
    # Only the in-horizon part of the outage is charged.
    assert scope.downtime_us == pytest.approx(2_000.0)
    assert scope.availability == pytest.approx(0.8)


def test_unsharded_pair_uses_cluster_scope():
    events = [_crash(100.0, scope=""), _takeover(150.0, 300.0, scope="")]
    report = compute_slo(events, horizon_us=1_000.0)
    assert len(report.scopes) == 1
    assert report.scopes[0].label == "cluster"
    assert report.scopes[0].downtime_us == pytest.approx(200.0)


def test_empty_trace_is_vacuously_available():
    report = compute_slo([])
    assert report.scopes == []
    assert report.cluster_availability == 1.0
    assert "no serving scopes" in report.render()


def test_audit_ok_is_carried_and_rendered():
    events = [_complete(10.0, 0)]
    unaudited = compute_slo(events)
    assert unaudited.audit_ok is None
    assert "trace audit" not in unaudited.render()
    confirmed = compute_slo(events, audit_ok=True)
    assert "PASS" in confirmed.render()
    tainted = compute_slo(events, audit_ok=False)
    assert "NOT" in tainted.render()
    assert tainted.to_dict()["audit_ok"] is False


def test_slo_from_trace_file_audits_on_request(tmp_path):
    events = [
        _complete(100.0, 0),
        _crash(2_000.0),
        # A completion inside the downtime window: audit must fail,
        # and the SLO report must say its numbers are tainted.
        _complete(2_500.0, 1),
        _takeover(2_200.0, 4_000.0),
        _complete(9_000.0, 1),
    ]
    path = tmp_path / "trace.jsonl"
    write_jsonl(path, events)
    reloaded, _metrics = read_jsonl(path)
    unaudited = compute_slo(reloaded)
    assert unaudited.audit_ok is None
    audited = compute_slo(reloaded, audit_ok=audit_events(reloaded).ok)
    assert audited.audit_ok is False
    assert audited.horizon_us == unaudited.horizon_us


def test_report_to_dict_shape():
    events = [_crash(100.0), _takeover(150.0, 300.0), _complete(500.0, 1)]
    payload = compute_slo(events, audit_ok=True).to_dict()
    assert payload["audit_ok"] is True
    assert payload["cluster_nines"] == pytest.approx(
        nines(payload["cluster_availability"])
    )
    assert [s["scope"] for s in payload["scopes"]] == ["shard.1"]


# -- live quorum outages: repeated, and still open at the horizon -----------


def _quorum_outage_run(faults, until_us):
    """One strict (3,2,2) group under a router submitting every 500 us;
    ``faults`` are ``(crash|recover, member, at_us)``."""
    observer = Observer()
    cluster = QuorumCluster(
        1, replicas_per_group=3, read_quorum=2, write_quorum=2,
        keys_per_group=16, observer=observer,
    )
    workload = QuorumWorkload(1, 16, value_bytes=32, seed=42)
    cluster.setup(workload)
    router = Router(cluster, workload, max_attempts=12, observer=observer)
    for tick in range(20):
        router.submit(key=0, at_us=tick * 500.0)
    for kind, member, at_us in faults:
        schedule = getattr(cluster, f"schedule_member_{kind}")
        schedule(0, member, at_us)
    cluster.run_until(until_us)
    return cluster.groups[0], list(observer.recorder.events)


def test_repeated_outages_in_one_scope_pair_crash_by_crash():
    # Quorum lost twice in one trace. Pairing every takeover with the
    # scope's *first* crash charged 6,500 us for these 2,500.
    group, events = _quorum_outage_run(
        [("crash", 1, 1_000.0), ("crash", 2, 2_000.0),
         ("recover", 1, 3_000.0), ("crash", 1, 6_000.0),
         ("recover", 1, 7_500.0)],
        until_us=40_000.0,
    )
    windows = [(2_000.0, 3_000.0), (6_000.0, 7_500.0)]
    assert [
        (span.crash_at_us, span.restored_at_us)
        for span in analyze_timeline(events).failovers
    ] == windows
    slo = compute_slo(events)
    (scope,) = slo.scopes
    assert scope.downtime_us == group.stats.downtime_us == 2_500.0
    assert scope.failovers == 2
    assert list(scope.windows) == windows
    assert list(scope.windows) == downtime_windows(events)["group.0"]
    assert audit_events(events).ok


def test_outage_open_at_the_horizon_is_charged_to_it():
    # Quorum lost at 2,000 us and never regained: the module
    # docstring's horizon convention (this used to report 1.0).
    _group, events = _quorum_outage_run(
        [("crash", 1, 1_000.0), ("crash", 2, 2_000.0)], until_us=10_000.0
    )
    slo = compute_slo(events)
    (scope,) = slo.scopes
    assert scope.downtime_us == slo.horizon_us - 2_000.0
    assert scope.availability < 1.0
    assert scope.windows == ((2_000.0, None),)
    assert scope.failovers == 0  # completed takeovers only
    assert "outage open at the end of the trace" in slo.render()
    assert scope.to_dict()["windows_us"] == [[2_000.0, None]]
    # An open outage has no recovery root; closed windows still match.
    assert audit_events(events).ok
