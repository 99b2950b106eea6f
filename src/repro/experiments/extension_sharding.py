"""Extension experiment: sharded multi-pair scaling and failover.

Not in the paper — its cluster is one primary-backup pair. This
experiment puts the :mod:`repro.shard` layer through both of the
claims that justify sharding:

* **Scaling** — aggregate throughput of 1/2/4/8 pairs serving
  disjoint Debit-Credit partitions. Each pair's rate is the calibrated
  single-pair estimate (the same one behind Tables 6/7); the
  composition shows near-linear scaling with dedicated per-pair SAN
  links, next to the cap one shared SAN would impose given the
  measured per-transaction packet mix (:mod:`repro.perf.sharding`).

* **Availability under failure** — a 4-shard cluster on one
  discrete-event simulator, a router submitting a fixed per-slot load,
  and one shard's primary crashing mid-run. Aggregate completions dip
  to exactly 3/4 of the offered rate while that shard's backup
  restores (the other shards never notice), then the router's retried
  backlog drains in a catch-up burst and the rate returns to normal.
  The pair uses passive Version 1 replication, whose whole-database
  mirror restore makes the takeover window long enough to see.

Everything is deterministic under the seed: the timeline is a pure
function of (shards, slots, crash time, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.cluster.cluster import TakeoverReport
from repro.experiments.common import ExperimentContext
from repro.fastpath import shardpar
from repro.fastpath.shardpar import TimelinePlan
from repro.obs import Observer, TraceEvent, analyze_timeline, write_jsonl
from repro.obs.report import TimelineReport
from repro.obs.series import (
    DipSummary,
    SeriesFrame,
    derive_dip,
    series_interval_us,
    windowed_goodput,
)
from repro.perf.report import ReportTable
from repro.perf.sharding import ShardedThroughputReport, sharded_aggregate
from repro.shard import ShardedWorkload

MB = 1024 * 1024

SHARD_COUNTS = (1, 2, 4, 8)

#: Failover-timeline defaults (all in simulated microseconds).
SLOT_US = 1_000.0
SLOTS = 28
OFFERED_PER_SHARD_PER_SLOT = 2
CRASH_AT_US = 5_250.0
HEARTBEAT_INTERVAL_US = 100.0
HEARTBEAT_TIMEOUT_US = 500.0


@dataclass
class SlotSample:
    """One timeline slot: what was offered and what completed."""

    start_us: float
    offered: int
    completed: int


def slot_samples(report, slots: int, offered: int) -> List[SlotSample]:
    """The trace's completions per slot (one report window each), plus
    a catch-up slot for whatever completed past the sampled horizon —
    those completions still belong to the run."""
    width = report.window_us
    samples = [
        SlotSample(slot * width, offered, completed)
        for slot, completed in enumerate(report.window_counts(slots))
    ]
    tail = report.completions_between(slots * width, float("inf"))
    if tail:
        samples.append(SlotSample(slots * width, 0, tail))
    return samples


class SeriesDerivations:
    """Windowed derivations shared by the measured timelines.

    Expects ``series`` (a :class:`SeriesFrame` with a cumulative
    ``router.completed`` column), ``slot_us`` and ``normal_per_slot``
    on the concrete dataclass.
    """

    def goodput_windows(self, window_us: Optional[float] = None) -> List[float]:
        """Completions per window derived from the sampled series."""
        window = self.slot_us if window_us is None else window_us
        return windowed_goodput(self.series, "router.completed", window)

    def series_dip(self, window_us: Optional[float] = None) -> Optional[DipSummary]:
        """Dip-and-recovery summary of the sampled goodput curve."""
        window = self.slot_us if window_us is None else window_us
        return derive_dip(
            self.goodput_windows(window), window, float(self.normal_per_slot)
        )

    def recovery(self):
        """Per-scope downtime decomposition from the recovery spans
        (expects ``trace_events`` on the concrete dataclass)."""
        from repro.obs.critpath import decompose_recoveries

        return decompose_recoveries(self.trace_events)

    def alerts(self):
        """Cross-check the recorded burn-rate alerts against the
        trace's own downtime record."""
        from repro.obs.alerts import verify_alerts

        return verify_alerts(self.trace_events)


@dataclass
class FailoverTimeline(SeriesDerivations):
    """The measured dip-and-recovery curve of one shard's failover."""

    num_shards: int
    slot_us: float
    offered_per_shard_per_slot: int
    crashed_shard: int
    crash_at_us: float
    takeover: TakeoverReport
    samples: List[SlotSample]
    router_stats: Dict[str, int] = field(default_factory=dict)
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

    def slo(self, audited: bool = True):
        """Fold the trace's downtime into an availability report,
        audit-confirmed unless ``audited`` is False."""
        from repro.obs.slo import compute_slo

        audit_ok = self.audit().ok if audited else None
        return compute_slo(self.trace_events, audit_ok=audit_ok)

    @property
    def normal_per_slot(self) -> int:
        return self.num_shards * self.offered_per_shard_per_slot

    @property
    def degraded_per_slot(self) -> int:
        return (self.num_shards - 1) * self.offered_per_shard_per_slot

    def outage_slots(self) -> List[SlotSample]:
        """Slots that lie fully inside the unavailability window."""
        return [
            s for s in self.samples
            if s.start_us > self.crash_at_us
            and s.start_us + self.slot_us <= self.takeover.service_restored_at_us
        ]

    def recovered_slots(self) -> List[SlotSample]:
        """Slots starting after service was restored *and* the retry
        backlog drained (completions back at the offered rate)."""
        drained = [
            s for s in self.samples
            if s.start_us > self.takeover.service_restored_at_us
        ]
        return [s for s in drained if s.completed == self.normal_per_slot]


@dataclass
class ShardingResult:
    scaling: List[ShardedThroughputReport]
    timeline: FailoverTimeline

    def table(self) -> ReportTable:
        table = ReportTable(
            "Extension: sharded cluster aggregate throughput "
            "(Debit-Credit, active replication, calibrated per-pair rate)",
            ["pairs", "per-pair tps", "dedicated links", "speedup",
             "one shared SAN", "SAN util."],
        )
        for report in self.scaling:
            table.add_row(
                report.shards,
                report.per_pair_tps,
                report.dedicated_tps,
                f"{report.dedicated_speedup:.2f}x",
                report.shared_san_tps,
                f"{report.shared_san_utilization * 100:.0f}%",
            )
        table.add_note(
            "disjoint shards with per-pair links scale linearly; one "
            "shared SAN caps at the link's packet-mix capacity"
        )
        timeline = self.timeline
        table.add_note(
            f"failover dip: {timeline.num_shards} shards served "
            f"{timeline.normal_per_slot}/slot, crash held "
            f"{len(timeline.outage_slots())} slots at "
            f"{timeline.degraded_per_slot}/slot "
            f"(downtime {timeline.takeover.downtime_us / 1000:.1f} ms), "
            f"then recovered"
        )
        return table

    def timeline_figure(self) -> str:
        timeline = self.timeline
        title = (
            f"Extension: aggregate completions per {timeline.slot_us:.0f} us "
            f"slot across one shard failover "
            f"({timeline.num_shards} shards, crash at "
            f"{timeline.crash_at_us / 1000:.2f} ms)"
        )
        lines = [title, "=" * len(title)]
        restored_at = timeline.takeover.service_restored_at_us
        for sample in timeline.samples:
            marks = []
            if sample.start_us <= timeline.crash_at_us < sample.start_us + timeline.slot_us:
                marks.append("<- crash")
            if sample.start_us <= restored_at < sample.start_us + timeline.slot_us:
                marks.append("<- restored")
            bar = "#" * sample.completed
            lines.append(
                f"  {sample.start_us / 1000:>5.1f} ms  "
                f"{sample.completed:>3}  {bar} {' '.join(marks)}".rstrip()
            )
        stats = timeline.router_stats
        lines.append(
            f"  router: {stats.get('routed', 0)} routed, "
            f"{stats.get('retries', 0)} retries, "
            f"{stats.get('redirects', 0)} redirects, "
            f"{stats.get('dropped', 0)} dropped"
        )
        return "\n".join(lines)

    def check(self) -> None:
        # -- scaling ----------------------------------------------------
        by_shards = {r.shards: r for r in self.scaling}
        one = by_shards[1]
        for n, report in by_shards.items():
            # Disjoint shards on dedicated links scale linearly.
            assert abs(report.dedicated_speedup - n) < 1e-9, (
                n, report.dedicated_speedup
            )
            # Sharing one SAN can only cost throughput, never add it.
            assert report.shared_san_tps <= report.dedicated_tps + 1e-9
            assert report.per_pair_tps == one.per_pair_tps
        shared = [by_shards[n].shared_san_tps for n in sorted(by_shards)]
        assert shared == sorted(shared), f"shared-SAN curve not monotone: {shared}"
        # Near-linear 1 -> 4 on dedicated links (exactly 4.0 here).
        assert by_shards[4].dedicated_tps >= 3.6 * one.dedicated_tps

        # -- failover timeline ------------------------------------------
        timeline = self.timeline
        n = timeline.num_shards
        normal = timeline.normal_per_slot
        degraded = timeline.degraded_per_slot

        pre_crash = [
            s for s in timeline.samples
            if s.start_us + timeline.slot_us <= timeline.crash_at_us
        ]
        assert pre_crash and all(s.completed == normal for s in pre_crash), (
            "healthy cluster must complete the offered rate"
        )
        outage = timeline.outage_slots()
        assert len(outage) >= 3, "takeover window too short to observe"
        assert all(s.completed == degraded for s in outage), (
            f"outage slots should degrade to exactly (n-1)/n = "
            f"{degraded}/{normal}: {[s.completed for s in outage]}"
        )
        assert timeline.recovered_slots(), "throughput never recovered"
        # The retried backlog drains: nothing is lost end to end.
        offered = sum(s.offered for s in timeline.samples)
        completed = sum(s.completed for s in timeline.samples)
        assert completed == offered, (completed, offered)
        assert timeline.router_stats["dropped"] == 0
        assert timeline.router_stats["retries"] > 0
        assert timeline.router_stats["redirects"] > 0
        # Downtime is bounded by detection plus the mirror restore.
        report = timeline.takeover
        assert report.downtime_us <= (
            HEARTBEAT_TIMEOUT_US + 2 * HEARTBEAT_INTERVAL_US
            + report.bytes_restored / 300.0 + 1.0
        )
        # The dip is 1/N of aggregate, not a full outage.
        assert degraded == normal * (n - 1) // n

        # -- trace consistency ------------------------------------------
        # Re-deriving the report from the raw trace must reproduce the
        # numbers every assertion above just consumed.
        rederived = timeline.trace_report()
        assert rederived.routing == timeline.router_stats
        spans = [
            s for s in rederived.failovers
            if s.shard_id == timeline.crashed_shard
        ]
        assert len(spans) == 1, "exactly one shard failed over"
        assert spans[0].downtime_us == report.downtime_us
        assert spans[0].crash_at_us == timeline.crash_at_us
        sampled_slots = len(
            [s for s in timeline.samples if s.offered > 0]
        )
        assert rederived.window_counts(sampled_slots) == [
            s.completed for s in timeline.samples[:sampled_slots]
        ]
        assert len(rederived.completions) == sum(
            s.completed for s in timeline.samples
        )
        # Every shard — crashed one included — eventually completed
        # exactly what it was offered; the dip was delay, not loss.
        assert sorted(rederived.per_shard_completions) == list(range(n))
        for count in rederived.per_shard_completions.values():
            assert count == SLOTS * timeline.offered_per_shard_per_slot

        # -- series consistency -----------------------------------------
        # The sampled SeriesFrame must tell the same story as the
        # trace, window for window: goodput derived from the sampler's
        # cumulative completion counter equals the trace-derived
        # half-open window counts exactly, and the dip-and-recovery
        # summaries computed from each agree.
        series = timeline.series
        assert len(series) > 0, "sampler recorded no ticks"
        deltas = timeline.goodput_windows()
        trace_counts = [float(c) for c in rederived.window_counts(len(deltas))]
        assert deltas == trace_counts, "series windows diverge from trace"
        assert sum(deltas) == float(completed)
        series_dip = timeline.series_dip()
        trace_dip = derive_dip(
            trace_counts, timeline.slot_us, float(normal)
        )
        assert series_dip is not None and series_dip == trace_dip
        assert series_dip.dip_floor == float(degraded)
        # The dip's duration brackets the measured takeover downtime
        # to within the slot quantization on each side.
        assert abs(
            series_dip.time_to_recover_us - report.downtime_us
        ) <= 2 * timeline.slot_us
        # Per-scope cumulative counters land on the per-shard totals.
        for shard in range(n):
            assert timeline.series.last(f"shard.{shard}.completed") == float(
                rederived.per_shard_completions[shard]
            )

        # -- audit + SLO ------------------------------------------------
        # A clean run must satisfy every replication invariant the
        # auditor knows, and the availability accounting must charge
        # the measured downtime to exactly the crashed shard.
        audit = timeline.audit()
        assert audit.ok, audit.render()
        slo = timeline.slo()
        assert slo.audit_ok is True
        by_scope = {s.scope: s for s in slo.scopes}
        assert set(by_scope) == {f"shard.{i}" for i in range(n)}
        for shard in range(n):
            scope = by_scope[f"shard.{shard}"]
            if shard == timeline.crashed_shard:
                assert scope.failovers == 1
                assert scope.availability < 1.0
            else:
                assert scope.downtime_us == 0.0
                assert scope.availability == 1.0
        # Cluster availability loses exactly the crashed shard's share.
        crashed = by_scope[f"shard.{timeline.crashed_shard}"]
        expected = (n - 1 + crashed.availability) / n
        assert abs(slo.cluster_availability - expected) < 1e-12

        # -- recovery decomposition -------------------------------------
        # SLO downtime and the recovery-span roots must tell one story,
        # scope by scope, window by window (this replaces the ad-hoc
        # downtime arithmetic the experiments used to duplicate).
        from repro.obs.critpath import crosscheck_recovery_slo

        decomposition = crosscheck_recovery_slo(timeline.trace_events, slo)
        crashed_scope = decomposition.scope(f"shard.{timeline.crashed_shard}")
        assert crashed_scope.recoveries == 1
        assert abs(
            crashed_scope.total_downtime_us - report.downtime_us
        ) <= 1e-6
        # Passive v1's whole-database mirror restore dominates the
        # failover — the trace-derived root cause, not an assumption.
        assert crashed_scope.dominant_phase == "catchup"
        assert crashed_scope.share("catchup") > 0.9
        # The resume instant links the recovery to the first served
        # completion, at or after restoration. A passive pair's
        # promoted engine serves bare (no commit-span recorder), so
        # the commit-tree link is absent here; the quorum experiment
        # asserts the linked variant.
        assert crashed_scope.resume_gaps == 1
        tree = decomposition.trees[0]
        assert tree.resume_gap_us is not None and tree.resume_gap_us >= 0.0
        assert tree.resume_commit_trace_id is None

        # -- alerts -----------------------------------------------------
        # The recorded burn-rate alerts are grounded: every fire
        # justified by real downtime, no justified window missed, and
        # only the crashed shard's scope ever pages.
        verification = timeline.alerts()
        assert verification.ok, verification.render()
        fires = [
            e for e in timeline.trace_events if e.name == "alert.fire"
        ]
        assert fires, "an outage this long must trip the burn-rate rules"
        assert {
            str(e.attrs["scope"]) for e in fires
        } == {f"shard.{timeline.crashed_shard}"}
        resolves = [
            e for e in timeline.trace_events if e.name == "alert.resolve"
        ]
        assert len(resolves) == len(fires), "every alert must resolve"


def failover_plan(
    num_shards: int = 4,
    slots: int = SLOTS,
    slot_us: float = SLOT_US,
    offered_per_shard: int = OFFERED_PER_SHARD_PER_SLOT,
    crash_at_us: float = CRASH_AT_US,
    crashed_shard: int = 2,
    db_bytes_per_shard: int = 4 * MB,
    seed: int = 42,
    crashes: tuple = None,
) -> TimelinePlan:
    """The failover timeline as a recorded schedule: a fixed
    round-robin load (``offered_per_shard`` transactions per shard per
    slot, keyed to the first branch each shard owns) plus one primary
    crash.

    ``crashes`` — a tuple of ``(shard_id, at_us)`` pairs — overrides
    the single ``crashed_shard``/``crash_at_us`` crash with a
    multi-crash schedule (each shard at most once; the pair model has
    one backup)."""
    workload = ShardedWorkload(
        "debit-credit", num_shards, db_bytes_per_shard, seed=seed
    )
    submissions = []
    for slot in range(slots):
        at_us = slot * slot_us
        for shard_id in range(num_shards):
            key = workload.partitioner.ranges[shard_id].start
            submissions.extend((at_us, key) for _ in range(offered_per_shard))
    horizon_us = slots * slot_us + 30_000.0
    return TimelinePlan(
        num_shards=num_shards,
        mode="passive",
        version="v1",  # whole-database mirror restore: a visible window
        db_bytes_per_shard=db_bytes_per_shard,
        log_bytes=512 * 1024,
        heartbeat_interval_us=HEARTBEAT_INTERVAL_US,
        heartbeat_timeout_us=HEARTBEAT_TIMEOUT_US,
        restore_bytes_per_us=300.0,
        workload="debit-credit",
        seed=seed,
        max_attempts=12,
        # The sampler's ticks are pre-scheduled *before* the load, so
        # at any shared timestamp they fire first and each sample sees
        # exactly the [0, t) prefix — the property that makes the
        # series windows match the trace windows bit for bit. The tick
        # divides the slot width (REPRO_SERIES can select a finer
        # divisor without changing any measured number).
        sample_interval_us=series_interval_us(slot_us, slot_us),
        sample_until_us=horizon_us,
        # Run past the load so the retry backlog fully drains.
        horizon_us=horizon_us,
        submissions=tuple(submissions),
        crashes=(
            ((crashed_shard, crash_at_us),) if crashes is None
            else tuple(crashes)
        ),
    )


def failover_timeline(
    num_shards: int = 4,
    slots: int = SLOTS,
    slot_us: float = SLOT_US,
    offered_per_shard: int = OFFERED_PER_SHARD_PER_SLOT,
    crash_at_us: float = CRASH_AT_US,
    crashed_shard: int = 2,
    db_bytes_per_shard: int = 4 * MB,
    seed: int = 42,
    observer: Optional[Observer] = None,
    trace_path: Optional[Union[str, "object"]] = None,
) -> FailoverTimeline:
    """Drive a sharded cluster through one primary crash and derive the
    per-slot timeline *from the recorded trace*.

    An :class:`~repro.obs.Observer` is always attached (recording never
    touches model state, so the numbers match an unobserved run bit for
    bit); the takeover span, slot completions and router totals all
    come out of :func:`~repro.obs.report.analyze_timeline` rather than
    the live objects. Pass ``trace_path`` to additionally dump the
    trace (and metrics snapshot) as JSONL for ``python -m
    repro.obs.report``.
    """
    if observer is None:
        observer = Observer()
    plan = failover_plan(
        num_shards=num_shards,
        slots=slots,
        slot_us=slot_us,
        offered_per_shard=offered_per_shard,
        crash_at_us=crash_at_us,
        crashed_shard=crashed_shard,
        db_bytes_per_shard=db_bytes_per_shard,
        seed=seed,
    )
    outcome = shardpar.execute(plan, observer=observer)

    # Annotate the trace with the burn-rate alert schedule its own
    # downtime record justifies. Appended post-run (every consumer
    # selects events by name, none by position), computed purely from
    # the recorded events.
    from repro.obs.alerts import evaluate_alerts

    events = outcome.events + evaluate_alerts(outcome.events)
    report = analyze_timeline(events, window_us=slot_us)
    span = next(
        s for s in report.failovers if s.shard_id == crashed_shard
    )
    takeover = TakeoverReport(
        crash_at_us=span.crash_at_us,
        detected_at_us=span.detected_at_us,
        service_restored_at_us=span.restored_at_us,
        bytes_restored=span.bytes_restored,
    )
    samples = slot_samples(report, slots, num_shards * offered_per_shard)
    # The trace must agree with the router's own bookkeeping — the
    # observer is a recorder, never a participant.
    assert report.routing["routed"] == outcome.routed
    assert report.routing["completed"] == outcome.completed
    assert takeover.downtime_us == outcome.takeover_downtime_us[crashed_shard]
    if trace_path is not None:
        write_jsonl(trace_path, events, metrics=observer.registry)
    return FailoverTimeline(
        num_shards=num_shards,
        slot_us=slot_us,
        offered_per_shard_per_slot=offered_per_shard,
        crashed_shard=crashed_shard,
        crash_at_us=crash_at_us,
        takeover=takeover,
        samples=samples,
        router_stats=dict(report.routing),
        trace_events=events,
        series=outcome.frame,
    )


def run(ctx: Optional[ExperimentContext] = None) -> ShardingResult:
    if ctx is None:
        ctx = ExperimentContext()
    result = ctx.active_result("debit-credit")
    single = ctx.estimator().active(result)
    per_txn_trace = result.packets_per_txn()
    scaling = [
        sharded_aggregate(single, n, per_txn_trace=per_txn_trace)
        for n in SHARD_COUNTS
    ]
    timeline = failover_timeline(seed=ctx.settings.seed)
    return ShardingResult(scaling=scaling, timeline=timeline)
