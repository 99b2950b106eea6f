"""Extension experiment: leaderless quorum groups vs primary-backup.

Not in the paper — its replication is primary-backup in both flavors.
This experiment measures the third architecture (:mod:`repro.quorum`)
on the axes the paper cares about, availability and replication
traffic:

* **The (N, R, W) sweep** — the analytic cost model
  (:mod:`repro.perf.quorum`) prices four quorum geometries next to the
  primary-backup pair: availability as the binomial k-of-n tail,
  traffic as shipped copies per transaction. Read-dominant strict
  configurations buy availability with write fan-out; a sloppy pair
  buys more availability than anything strict at pair-level traffic.

* **Availability under failure, from a trace** — a 3-group strict
  (3, 2, 2) cluster on one discrete-event simulator, the shard router
  submitting a fixed per-slot load, one group losing quorum (two
  member crashes, one recovery) and another riding out a symmetric
  network partition without losing quorum. Aggregate completions dip
  to exactly 2/3 of the offered rate during the quorum-loss window,
  the retried backlog drains afterwards, and the background Merkle
  anti-entropy loop converges every replica byte-identically by the
  end. All numbers are derived from the recorded trace, audited
  (quorum-intersection and version-vector rules included), and folded
  into per-group SLO availability.

* **Quorum vs pair at equal replica count** — two replicas each, the
  same crash at the same simulated instant: the sloppy quorum group
  keeps serving on its surviving replica (hinted handoff catches the
  crashed one up on recovery) while the passive-v1 pair takes its
  whole-database-restore outage. The SLO reports make the comparison:
  quorum availability >= pair availability, measured, not modeled.

Everything is deterministic under the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.experiments.common import ExperimentContext
from repro.experiments.extension_sharding import (
    FailoverTimeline,
    SeriesDerivations,
    SlotSample,
    failover_timeline,
    slot_samples,
)
from repro.obs import Observer, TraceEvent, analyze_timeline, write_jsonl
from repro.obs.report import FailoverSpan, TimelineReport
from repro.obs.series import (
    SeriesFrame,
    TimeSeriesSampler,
    derive_dip,
    quorum_probes,
    router_probes,
    series_interval_us,
    sim_probes,
)
from repro.perf.quorum import (
    QuorumCostReport,
    primary_backup_cost,
    quorum_cost,
)
from repro.perf.report import ReportTable
from repro.quorum import QuorumCluster, QuorumWorkload
from repro.shard import Router

MB = 1024 * 1024

#: The sweep: (N, R, W, sloppy). The sloppy pair must be sloppy — the
#: auditor rightly flags a *strict* R + W <= N configuration as having
#: no intersection guarantee to offer.
SWEEP = (
    (2, 1, 1, True),
    (3, 1, 3, False),
    (3, 2, 2, False),
    (5, 2, 4, False),
)
#: Model inputs: per-replica availability and the nominal replicated
#: record (64-byte value plus version-vector header).
REPLICA_AVAILABILITY = 0.99
RECORD_BYTES = 96

#: Trace-driven timeline defaults (simulated microseconds).
SLOT_US = 1_000.0
SLOTS = 24
OFFERED_PER_GROUP_PER_SLOT = 2
NUM_GROUPS = 3
KEYS_PER_GROUP = 32
VALUE_BYTES = 64
REPAIR_INTERVAL_US = 2_500.0
DRAIN_US = 30_000.0

#: Group 1 loses quorum when its second member dies and regains it
#: when the first recovers: exactly one quorum-loss window.
DOWNED_GROUP = 1
CRASH_FIRST_AT_US = 3_600.0
CRASH_SECOND_AT_US = 5_250.0
RECOVER_FIRST_AT_US = 9_250.0
RECOVER_SECOND_AT_US = 12_000.0
#: Group 2 is partitioned {0} | {1, 2} — it keeps quorum on the
#: majority side and diverges replica 0 for anti-entropy to repair.
PARTITIONED_GROUP = 2
PARTITION_AT_US = 6_000.0
HEAL_AT_US = 8_000.0

#: Comparison run: both systems have two replicas and lose one at the
#: same instant (the sharding experiment's crash time).
PAIR_CRASH_AT_US = 5_250.0
PAIR_RECOVER_AT_US = 15_250.0


@dataclass
class QuorumTimeline(SeriesDerivations):
    """The measured dip-and-recovery curve of one group's quorum loss."""

    num_groups: int
    slot_us: float
    offered_per_group_per_slot: int
    downed_group: int
    quorum_loss: FailoverSpan
    samples: List[SlotSample]
    converged: bool
    router_stats: Dict[str, int] = field(default_factory=dict)
    group_stats: Dict[int, Dict[str, float]] = field(default_factory=dict)
    #: The raw trace the numbers above were derived from.
    trace_events: List[TraceEvent] = field(default_factory=list)
    #: The sampled time series recorded alongside the trace.
    series: SeriesFrame = field(default_factory=SeriesFrame)

    def trace_report(self, window_us: Optional[float] = None) -> TimelineReport:
        """Re-derive the timeline report from the recorded trace."""
        return analyze_timeline(
            self.trace_events,
            window_us=self.slot_us if window_us is None else window_us,
        )

    def audit(self):
        """Run the online trace auditor over the recorded trace."""
        from repro.obs.audit import audit_events

        return audit_events(self.trace_events)

    def slo(self, audited: bool = True, scopes=None):
        """Fold the trace's quorum-loss windows into availability."""
        from repro.obs.slo import compute_slo

        audit_ok = self.audit().ok if audited else None
        return compute_slo(
            self.trace_events, audit_ok=audit_ok, scopes=scopes
        )

    @property
    def normal_per_slot(self) -> int:
        return self.num_groups * self.offered_per_group_per_slot

    @property
    def degraded_per_slot(self) -> int:
        return (self.num_groups - 1) * self.offered_per_group_per_slot

    def outage_slots(self) -> List[SlotSample]:
        """Slots that lie fully inside the quorum-loss window."""
        return [
            s for s in self.samples
            if s.start_us > self.quorum_loss.crash_at_us
            and s.start_us + self.slot_us <= self.quorum_loss.restored_at_us
        ]

    def recovered_slots(self) -> List[SlotSample]:
        """Slots after quorum returned whose completions are back at
        the offered rate (the catch-up burst has drained)."""
        drained = [
            s for s in self.samples
            if s.start_us > self.quorum_loss.restored_at_us
        ]
        return [s for s in drained if s.completed == self.normal_per_slot]


@dataclass
class QuorumComparison:
    """Quorum vs passive pair: same replica count, same crash."""

    crash_at_us: float
    quorum_availability: float
    quorum_downtime_us: float
    hints_delivered: int
    pair_timeline: FailoverTimeline
    quorum_trace_events: List[TraceEvent] = field(default_factory=list)
    #: Sampled series of the sloppy group's run (hint backlog curve).
    quorum_series: SeriesFrame = field(default_factory=SeriesFrame)

    @property
    def pair_availability(self) -> float:
        pair = self.pair_timeline.slo()
        return pair.cluster_availability

    @property
    def pair_downtime_us(self) -> float:
        return self.pair_timeline.takeover.downtime_us

    def audit(self):
        from repro.obs.audit import audit_events

        return audit_events(self.quorum_trace_events)


@dataclass
class QuorumResult:
    sweep: List[QuorumCostReport]
    baseline: QuorumCostReport
    timeline: QuorumTimeline
    comparison: QuorumComparison

    def table(self) -> ReportTable:
        table = ReportTable(
            "Extension: quorum replication cost "
            f"(per-replica availability {REPLICA_AVAILABILITY:.2f}, "
            f"{RECORD_BYTES}-byte records)",
            ["configuration", "mode", "R+W>N", "availability",
             "write bytes/txn", "read bytes/txn", "traffic vs pair"],
        )
        for report in [self.baseline] + self.sweep:
            table.add_row(
                report.label,
                report.mode,
                "yes" if report.intersects else "no",
                f"{report.availability * 100:.4f}%",
                report.write_bytes_per_txn,
                report.read_bytes_per_txn,
                f"{report.traffic_ratio(self.baseline):.2f}x",
            )
        table.add_note(
            "availability is the binomial k-of-n tail (strict: "
            "max(R,W) reachable; sloppy: any live replica); traffic "
            "is shipped copies per read-modify-write transaction"
        )
        timeline = self.timeline
        loss = timeline.quorum_loss
        stats = timeline.group_stats[timeline.downed_group]
        table.add_note(
            f"measured quorum loss: group {timeline.downed_group} held "
            f"{len(timeline.outage_slots())} slots at "
            f"{timeline.degraded_per_slot}/{timeline.normal_per_slot} "
            f"per slot (downtime {loss.downtime_us / 1000:.1f} ms), "
            f"then recovered; anti-entropy exchanged "
            f"{stats['repair_keys']:.0f} keys to reconverge"
        )
        comparison = self.comparison
        table.add_note(
            f"two replicas, same crash at "
            f"{comparison.crash_at_us / 1000:.2f} ms: sloppy quorum "
            f"served {comparison.quorum_availability * 100:.4f}% "
            f"({comparison.hints_delivered} hints handed off), passive "
            f"pair {comparison.pair_availability * 100:.4f}% "
            f"(restore outage {comparison.pair_downtime_us / 1000:.1f} ms)"
        )
        return table

    def timeline_figure(self) -> str:
        timeline = self.timeline
        loss = timeline.quorum_loss
        title = (
            f"Extension: aggregate completions per "
            f"{timeline.slot_us:.0f} us slot across one quorum loss "
            f"({timeline.num_groups} strict (3,2,2) groups, group "
            f"{timeline.downed_group} below quorum at "
            f"{loss.crash_at_us / 1000:.2f} ms)"
        )
        lines = [title, "=" * len(title)]
        for sample in timeline.samples:
            marks = []
            if sample.start_us <= loss.crash_at_us < sample.start_us + timeline.slot_us:
                marks.append("<- quorum lost")
            if sample.start_us <= loss.restored_at_us < sample.start_us + timeline.slot_us:
                marks.append("<- quorum restored")
            bar = "#" * sample.completed
            lines.append(
                f"  {sample.start_us / 1000:>5.1f} ms  "
                f"{sample.completed:>3}  {bar} {' '.join(marks)}".rstrip()
            )
        stats = timeline.router_stats
        lines.append(
            f"  router: {stats.get('routed', 0)} routed, "
            f"{stats.get('retries', 0)} retries, "
            f"{stats.get('dropped', 0)} dropped; replicas converged: "
            f"{'yes' if timeline.converged else 'no'}"
        )
        return "\n".join(lines)

    def check(self) -> None:
        # -- the cost model sweep ---------------------------------------
        by_config = {
            (r.replicas, r.read_quorum, r.write_quorum): r
            for r in self.sweep
        }
        assert len(by_config) == len(self.sweep)
        for report in self.sweep:
            assert 0.0 <= report.availability <= 1.0
            # Every strict configuration in the sweep must carry the
            # intersection guarantee; the sloppy one trades it away.
            assert report.intersects or report.sloppy, report.label
            # N-replica groups ship at least the pair's write traffic.
            assert (
                report.write_bytes_per_txn
                >= self.baseline.write_bytes_per_txn
            )
        sloppy_pair = by_config[(2, 1, 1)]
        assert sloppy_pair.sloppy
        # A sloppy pair outlives every strict geometry here: one live
        # replica suffices, so only total loss takes it down.
        for report in self.sweep:
            if report is not sloppy_pair:
                assert sloppy_pair.availability > report.availability
        # ... at exactly the pair's traffic.
        assert sloppy_pair.traffic_ratio(self.baseline) == 1.0
        # Read-dominant (3,2,2) beats write-all (3,1,3) on availability
        # at equal storage: needing 2-of-3 beats needing 3-of-3.
        assert (
            by_config[(3, 2, 2)].availability
            > by_config[(3, 1, 3)].availability
        )

        # -- the quorum-loss timeline -----------------------------------
        timeline = self.timeline
        n = timeline.num_groups
        normal = timeline.normal_per_slot
        degraded = timeline.degraded_per_slot
        loss = timeline.quorum_loss
        assert loss.crash_at_us == CRASH_SECOND_AT_US
        assert loss.restored_at_us == RECOVER_FIRST_AT_US
        pre_crash = [
            s for s in timeline.samples
            if s.start_us + timeline.slot_us <= loss.crash_at_us
        ]
        assert pre_crash and all(s.completed == normal for s in pre_crash), (
            "healthy groups must complete the offered rate"
        )
        outage = timeline.outage_slots()
        assert len(outage) >= 3, "quorum-loss window too short to observe"
        assert all(s.completed == degraded for s in outage), (
            f"outage slots should degrade to exactly (n-1)/n = "
            f"{degraded}/{normal}: {[s.completed for s in outage]}"
        )
        assert timeline.recovered_slots(), "throughput never recovered"
        offered = sum(s.offered for s in timeline.samples)
        completed = sum(s.completed for s in timeline.samples)
        assert completed == offered, (completed, offered)
        assert timeline.router_stats["dropped"] == 0
        assert timeline.router_stats["retries"] > 0
        # Divergence existed (the partition forced hintless staleness)
        # and anti-entropy repaired it: every replica byte-identical.
        assert timeline.converged, "anti-entropy failed to converge"
        assert timeline.group_stats[PARTITIONED_GROUP]["repair_keys"] > 0

        # -- trace consistency ------------------------------------------
        rederived = timeline.trace_report()
        assert rederived.routing == timeline.router_stats
        spans = [
            s for s in rederived.failovers
            if s.scope == f"group.{timeline.downed_group}"
        ]
        assert len(spans) == 1, "exactly one group lost quorum"
        assert spans[0].downtime_us == loss.downtime_us
        assert rederived.failovers == [spans[0]], (
            "no other group may lose quorum"
        )
        per_group = sum(
            s.offered for s in timeline.samples
        ) // n
        assert rederived.per_scope_completions == {
            f"group.{group}": per_group for group in range(n)
        }, "the dip was delay, not loss — every group served its offer"

        # -- series consistency -----------------------------------------
        # The sampled time series must tell the same story as the trace:
        # per-window completion deltas equal the trace's window counts
        # exactly, and the dip derived from the series matches the dip
        # derived from the trace.
        assert len(timeline.series) > 0, "sampler recorded no ticks"
        deltas = timeline.goodput_windows()
        trace_counts = rederived.window_counts(len(deltas))
        assert deltas == [float(c) for c in trace_counts], (
            "series-derived goodput disagrees with the trace"
        )
        assert sum(deltas) == float(completed)
        series_dip = timeline.series_dip()
        assert series_dip is not None
        trace_dip = derive_dip(
            [float(c) for c in trace_counts],
            timeline.slot_us,
            float(normal),
        )
        assert series_dip == trace_dip
        assert series_dip.dip_floor == float(degraded)
        # The dip window brackets the measured quorum loss to within
        # the sampling resolution on each side.
        assert (
            abs(series_dip.time_to_recover_us - loss.downtime_us)
            <= 2 * timeline.slot_us
        )
        for group in range(n):
            assert timeline.series.last(
                f"group.{group}.completed"
            ) == float(rederived.per_scope_completions[f"group.{group}"])
        # Anti-entropy ran: the sampled repair-key counter moved, and
        # never past the groups' own final bookkeeping.
        repair_last = timeline.series.last("quorum.repair_keys")
        repair_total = sum(
            g["repair_keys"] for g in timeline.group_stats.values()
        )
        assert 0 < repair_last <= repair_total, (repair_last, repair_total)

        # -- audit + SLO ------------------------------------------------
        audit = timeline.audit()
        assert audit.ok, audit.render()
        slo = timeline.slo()
        assert slo.audit_ok is True
        by_scope = {s.scope: s for s in slo.scopes}
        assert set(by_scope) == {f"group.{i}" for i in range(n)}
        for group in range(n):
            scope = by_scope[f"group.{group}"]
            if group == timeline.downed_group:
                assert scope.failovers == 1
                assert scope.availability < 1.0
            else:
                assert scope.downtime_us == 0.0
                assert scope.availability == 1.0
        downed = by_scope[f"group.{timeline.downed_group}"]
        expected = (n - 1 + downed.availability) / n
        assert abs(slo.cluster_availability - expected) < 1e-12
        # The per-scope filter isolates one group's record.
        filtered = timeline.slo(scopes=[f"group.{timeline.downed_group}"])
        assert len(filtered.scopes) == 1
        assert filtered.scopes[0].scope == f"group.{timeline.downed_group}"

        # -- recovery decomposition -------------------------------------
        # SLO downtime and the recovery-span roots must tell one story,
        # scope by scope, window by window (this replaces the ad-hoc
        # downtime arithmetic the experiments used to duplicate).
        from repro.obs.critpath import crosscheck_recovery_slo

        decomposition = crosscheck_recovery_slo(timeline.trace_events, slo)
        downed_scope = decomposition.scope(f"group.{timeline.downed_group}")
        assert downed_scope.recoveries == 1
        assert abs(
            downed_scope.total_downtime_us - loss.downtime_us
        ) <= 1e-6
        # A quorum loss is a membership problem by construction: the
        # whole outage is the view phase (no reachable quorum), with
        # zero-width detection and instantaneous hint delivery.
        assert downed_scope.dominant_phase == "view"
        assert downed_scope.share("view") == 1.0
        # The resume instant links into the first post-outage commit's
        # span tree (quorum groups record commit spans while serving).
        assert downed_scope.resume_gaps == 1
        tree = decomposition.trees[0]
        assert tree.resume_gap_us is not None and tree.resume_gap_us >= 0.0
        assert tree.resume_commit_trace_id is not None

        # -- alerts -----------------------------------------------------
        # The recorded burn-rate alerts are grounded: every fire
        # justified by real downtime, none missed, and only the downed
        # group's scope ever pages.
        verification = timeline.alerts()
        assert verification.ok, verification.render()
        fires = [
            e for e in timeline.trace_events if e.name == "alert.fire"
        ]
        assert fires, "the quorum-loss window must trip the fast-burn rule"
        assert {
            str(e.attrs["scope"]) for e in fires
        } == {f"group.{timeline.downed_group}"}
        resolves = [
            e for e in timeline.trace_events if e.name == "alert.resolve"
        ]
        assert len(resolves) == len(fires), "every alert must resolve"

        # -- quorum vs pair, equal replica count ------------------------
        comparison = self.comparison
        assert comparison.audit().ok
        assert comparison.pair_timeline.audit().ok
        assert comparison.pair_availability < 1.0
        assert comparison.quorum_availability >= comparison.pair_availability
        # The sloppy group never stopped serving, and the crashed
        # replica was caught up by hinted handoff, not luck.
        assert comparison.quorum_downtime_us == 0.0
        assert comparison.hints_delivered > 0
        # The series shows the mechanism: hints pooled while the
        # replica was down, then the backlog drained to nothing.
        backlog = comparison.quorum_series.values("quorum.hints_pending")
        assert max(backlog) > 0.0, "hint backlog never observed"
        assert backlog[-1] == 0.0, "hint backlog never drained"


def quorum_timeline(
    num_groups: int = NUM_GROUPS,
    slots: int = SLOTS,
    slot_us: float = SLOT_US,
    offered_per_group: int = OFFERED_PER_GROUP_PER_SLOT,
    seed: int = 42,
    observer: Optional[Observer] = None,
    trace_path: Optional[Union[str, "object"]] = None,
) -> QuorumTimeline:
    """Drive a strict (3, 2, 2) quorum cluster through one quorum loss
    and one partition, deriving the timeline *from the recorded trace*.

    Pass ``trace_path`` to additionally dump the trace as JSONL for
    ``python -m repro.obs.report``.
    """
    if observer is None:
        observer = Observer()
    cluster = QuorumCluster(
        num_groups,
        replicas_per_group=3,
        read_quorum=2,
        write_quorum=2,
        keys_per_group=KEYS_PER_GROUP,
        repair_interval_us=REPAIR_INTERVAL_US,
        observer=observer,
    )
    workload = QuorumWorkload(
        num_groups, KEYS_PER_GROUP, value_bytes=VALUE_BYTES, seed=seed
    )
    cluster.setup(workload)
    router = Router(cluster, workload, max_attempts=12, observer=observer)

    horizon_us = slots * slot_us + DRAIN_US
    sampler = TimeSeriesSampler(observer=observer)
    sampler.add_probes(sim_probes(cluster.sim))
    sampler.add_probes(router_probes(
        router, scopes={f"group.{g}": g for g in range(num_groups)}
    ))
    sampler.add_probes(quorum_probes(cluster.groups))
    sampler.attach(
        cluster.sim, series_interval_us(slot_us, slot_us), horizon_us
    )

    # A fixed load: offered_per_group transactions per group per slot
    # (global key g routes to group g; the group draws its own local
    # keys from its seeded stream).
    for slot in range(slots):
        at_us = slot * slot_us
        for group_id in range(num_groups):
            for _ in range(offered_per_group):
                router.submit(key=group_id, at_us=at_us)

    cluster.schedule_member_crash(DOWNED_GROUP, 1, CRASH_FIRST_AT_US)
    cluster.schedule_member_crash(DOWNED_GROUP, 2, CRASH_SECOND_AT_US)
    cluster.schedule_member_recover(DOWNED_GROUP, 1, RECOVER_FIRST_AT_US)
    cluster.schedule_member_recover(DOWNED_GROUP, 2, RECOVER_SECOND_AT_US)
    cluster.schedule_partition(
        PARTITIONED_GROUP, [0], [1, 2],
        at_us=PARTITION_AT_US, heal_at_us=HEAL_AT_US,
    )
    # Run past the horizon so retries and repair rounds fully drain,
    # then one explicit sweep to pick up any last divergence.
    cluster.run_until(horizon_us)
    cluster.repair_pass_all()
    converged = all(
        group.replicas_converged() for group in cluster.groups
    )

    # Annotate the trace with the burn-rate alert schedule its own
    # downtime record justifies (appended post-run; every consumer
    # selects events by name, none by position).
    from repro.obs.alerts import evaluate_alerts

    events = list(observer.recorder.events)
    events = events + evaluate_alerts(events)
    report = analyze_timeline(events, window_us=slot_us)
    loss = next(
        s for s in report.failovers
        if s.scope == f"group.{DOWNED_GROUP}"
    )
    samples = slot_samples(report, slots, num_groups * offered_per_group)
    # The trace must agree with the live objects' own bookkeeping —
    # the observer is a recorder, never a participant.
    assert report.routing["routed"] == router.routed
    assert report.routing["completed"] == router.completed
    if trace_path is not None:
        write_jsonl(trace_path, events, metrics=observer.registry)
    return QuorumTimeline(
        num_groups=num_groups,
        slot_us=slot_us,
        offered_per_group_per_slot=offered_per_group,
        downed_group=DOWNED_GROUP,
        quorum_loss=loss,
        samples=samples,
        converged=converged,
        router_stats=dict(report.routing),
        group_stats=cluster.stats,
        trace_events=events,
        series=sampler.frame,
    )


def availability_comparison(seed: int = 42) -> QuorumComparison:
    """Two replicas each, one crash at the same instant: a sloppy
    quorum group vs the passive-v1 pair, both availability records
    measured from their own traces."""
    observer = Observer()
    cluster = QuorumCluster(
        1,
        replicas_per_group=2,
        read_quorum=1,
        write_quorum=1,
        keys_per_group=KEYS_PER_GROUP,
        sloppy=True,
        observer=observer,
    )
    workload = QuorumWorkload(
        1, KEYS_PER_GROUP, value_bytes=VALUE_BYTES, seed=seed
    )
    cluster.setup(workload)
    router = Router(cluster, workload, max_attempts=12, observer=observer)
    sampler = TimeSeriesSampler(observer=observer)
    sampler.add_probes(router_probes(router, scopes={"group.0": 0}))
    sampler.add_probes(quorum_probes(cluster.groups))
    sampler.attach(
        cluster.sim,
        series_interval_us(SLOT_US, SLOT_US),
        SLOTS * SLOT_US + DRAIN_US,
    )
    for slot in range(SLOTS):
        at_us = slot * SLOT_US
        for _ in range(OFFERED_PER_GROUP_PER_SLOT):
            router.submit(key=0, at_us=at_us)
    cluster.schedule_member_crash(0, 0, PAIR_CRASH_AT_US)
    cluster.schedule_member_recover(0, 0, PAIR_RECOVER_AT_US)
    cluster.run_until(SLOTS * SLOT_US + DRAIN_US)
    group = cluster.groups[0]
    events = list(observer.recorder.events)

    from repro.obs.slo import compute_slo

    slo = compute_slo(events)
    by_scope = {s.scope: s for s in slo.scopes}
    quorum_scope = by_scope["group.0"]
    assert router.dropped == 0

    pair = failover_timeline(
        num_shards=1,
        slots=SLOTS,
        crashed_shard=0,
        crash_at_us=PAIR_CRASH_AT_US,
        db_bytes_per_shard=4 * MB,
        seed=seed,
    )
    return QuorumComparison(
        crash_at_us=PAIR_CRASH_AT_US,
        quorum_availability=quorum_scope.availability,
        quorum_downtime_us=quorum_scope.downtime_us,
        hints_delivered=group.stats.hints_delivered,
        pair_timeline=pair,
        quorum_trace_events=events,
        quorum_series=sampler.frame,
    )


def run(ctx: Optional[ExperimentContext] = None) -> QuorumResult:
    if ctx is None:
        ctx = ExperimentContext()
    seed = ctx.settings.seed
    sweep = [
        quorum_cost(
            n, r, w, REPLICA_AVAILABILITY, RECORD_BYTES, sloppy=sloppy
        )
        for n, r, w, sloppy in SWEEP
    ]
    baseline = primary_backup_cost(REPLICA_AVAILABILITY, RECORD_BYTES)
    timeline = quorum_timeline(seed=seed)
    comparison = availability_comparison(seed=seed)
    return QuorumResult(
        sweep=sweep,
        baseline=baseline,
        timeline=timeline,
        comparison=comparison,
    )
