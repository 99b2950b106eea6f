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
    DRAIN_US,
    OutageTimeline,
    failover_timeline,
)
from repro.fastpath.shardpar import drive, fixed_load
from repro.obs import Observer, TraceEvent
from repro.obs.audit import audit_events
from repro.obs.series import SeriesFrame, quorum_probes, router_probes, sim_probes
from repro.obs.slo import compute_slo
from repro.perf.quorum import (
    QuorumCostReport,
    primary_backup_cost,
    quorum_cost,
)
from repro.perf.report import ReportTable
from repro.quorum import QuorumCluster, QuorumWorkload

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
class GroupOutageTimeline(OutageTimeline):
    """One group's quorum loss, plus what only quorum groups report."""

    #: Whether every replica of every group ended byte-identical.
    converged: bool
    group_stats: Dict[int, Dict[str, float]]


@dataclass
class QuorumComparison:
    """Quorum vs passive pair: same replica count, same crash."""

    crash_at_us: float
    quorum_availability: float
    quorum_downtime_us: float
    hints_delivered: int
    pair_timeline: OutageTimeline
    quorum_trace_events: List[TraceEvent] = field(default_factory=list)
    #: Sampled series of the sloppy group's run (hint backlog curve).
    quorum_series: SeriesFrame = field(default_factory=SeriesFrame)

    @property
    def pair_availability(self) -> float:
        return self.pair_timeline.slo.cluster_availability

    @property
    def pair_downtime_us(self) -> float:
        return self.pair_timeline.outage.downtime_us


@dataclass
class QuorumResult:
    sweep: List[QuorumCostReport]
    baseline: QuorumCostReport
    timeline: GroupOutageTimeline
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
        loss = timeline.outage
        stats = timeline.group_stats[timeline.downed_unit]
        table.add_note(
            f"measured quorum loss: group {timeline.downed_unit} held "
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
        return timeline.figure(
            f"Extension: aggregate completions per "
            f"{timeline.slot_us:.0f} us slot across one quorum loss "
            f"({timeline.num_units} strict (3,2,2) groups, group "
            f"{timeline.downed_unit} below quorum at "
            f"{timeline.outage.crash_at_us / 1000:.2f} ms)",
            "<- quorum lost",
            "<- quorum restored",
            f"{timeline.router_stats['dropped']} dropped; replicas "
            f"converged: {'yes' if timeline.converged else 'no'}",
        )

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

        check_quorum_timeline(self.timeline)

        # -- quorum vs pair, equal replica count ------------------------
        comparison = self.comparison
        assert audit_events(comparison.quorum_trace_events).ok
        assert comparison.pair_timeline.audit.ok
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


def check_quorum_timeline(timeline: GroupOutageTimeline) -> None:
    """The shared timeline check, plus what only a quorum loss shows."""
    downed, tree = timeline.check()
    # Quorum is lost the instant the second member dies and regained
    # the instant the first recovers: no detection, no restore.
    assert timeline.outage.crash_at_us == CRASH_SECOND_AT_US
    assert timeline.outage.restored_at_us == RECOVER_FIRST_AT_US
    # Divergence existed (the partition forced hintless staleness)
    # and anti-entropy repaired it: every replica byte-identical.
    assert timeline.converged, "anti-entropy failed to converge"
    assert timeline.group_stats[PARTITIONED_GROUP]["repair_keys"] > 0
    # Anti-entropy ran: the sampled repair-key counter moved, and
    # never past the groups' own final bookkeeping.
    repair_last = timeline.series.last("quorum.repair_keys")
    repair_total = sum(
        g["repair_keys"] for g in timeline.group_stats.values()
    )
    assert 0 < repair_last <= repair_total, (repair_last, repair_total)
    # The per-scope filter isolates one group's record.
    filtered = compute_slo(
        timeline.trace_events, audit_ok=timeline.audit.ok,
        scopes=[timeline.downed_scope],
    )
    assert [s.scope for s in filtered.scopes] == [timeline.downed_scope]
    # A quorum loss is a membership problem by construction: the
    # whole outage is the view phase (no reachable quorum), with
    # zero-width detection and instantaneous hint delivery.
    assert downed.dominant_phase == "view"
    assert downed.share("view") == 1.0
    # The resume instant links into the first post-outage commit's
    # span tree (quorum groups record commit spans while serving).
    assert tree.resume_commit_trace_id is not None


def quorum_timeline(
    num_groups: int = NUM_GROUPS,
    slots: int = SLOTS,
    seed: int = 42,
    observer: Optional[Observer] = None,
    trace_path: Optional[Union[str, "object"]] = None,
) -> GroupOutageTimeline:
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

    def schedule_faults(cluster: QuorumCluster) -> None:
        cluster.crash(DOWNED_GROUP, 1, CRASH_FIRST_AT_US)
        cluster.crash(DOWNED_GROUP, 2, CRASH_SECOND_AT_US)
        cluster.recover(DOWNED_GROUP, 1, RECOVER_FIRST_AT_US)
        cluster.recover(DOWNED_GROUP, 2, RECOVER_SECOND_AT_US)
        cluster.partition(
            PARTITIONED_GROUP, [0], [1, 2],
            at_us=PARTITION_AT_US, heal_at_us=HEAL_AT_US,
        )

    # Run past the load so retries and repair rounds fully drain.
    router, series = drive(
        cluster,
        QuorumWorkload(
            num_groups, KEYS_PER_GROUP, value_bytes=VALUE_BYTES, seed=seed
        ),
        # Global key g routes to group g; the group draws its own local
        # keys from its seeded stream.
        fixed_load(slots, SLOT_US, range(num_groups),
                   OFFERED_PER_GROUP_PER_SLOT),
        schedule_faults,
        lambda router: {
            **sim_probes(cluster.sim),
            **router_probes(router),
            **quorum_probes(cluster.groups),
        },
        slots * SLOT_US + DRAIN_US,
        SLOT_US,
    )
    # One explicit sweep to pick up any last divergence.
    cluster.repair_pass_all()
    return GroupOutageTimeline.from_run(
        observer, router.routed, router.completed, trace_path,
        scope_prefix="group",
        num_units=num_groups,
        slots=slots,
        slot_us=SLOT_US,
        offered_per_unit=OFFERED_PER_GROUP_PER_SLOT,
        downed_unit=DOWNED_GROUP,
        series=series,
        converged=all(group.replicas_converged() for group in cluster.groups),
        group_stats=cluster.stats,
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

    def schedule_faults(cluster: QuorumCluster) -> None:
        cluster.crash(0, 0, PAIR_CRASH_AT_US)
        cluster.recover(0, 0, PAIR_RECOVER_AT_US)

    router, series = drive(
        cluster,
        QuorumWorkload(1, KEYS_PER_GROUP, value_bytes=VALUE_BYTES, seed=seed),
        fixed_load(SLOTS, SLOT_US, (0,), OFFERED_PER_GROUP_PER_SLOT),
        schedule_faults,
        lambda router: {
            **router_probes(router),
            **quorum_probes(cluster.groups),
        },
        SLOTS * SLOT_US + DRAIN_US,
        SLOT_US,
    )
    assert router.dropped == 0
    events = list(observer.recorder.events)
    quorum_scope, = compute_slo(events).scopes
    assert quorum_scope.scope == "group.0"
    return QuorumComparison(
        crash_at_us=PAIR_CRASH_AT_US,
        quorum_availability=quorum_scope.availability,
        quorum_downtime_us=quorum_scope.downtime_us,
        hints_delivered=cluster.groups[0].stats.hints_delivered,
        pair_timeline=failover_timeline(
            num_shards=1,
            slots=SLOTS,
            crashes=((0, PAIR_CRASH_AT_US),),
            seed=seed,
        ),
        quorum_trace_events=events,
        quorum_series=series,
    )


def run(ctx: ExperimentContext) -> QuorumResult:
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
