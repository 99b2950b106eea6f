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
function of (shards, slots, crash schedule, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

from repro.experiments.common import MB, ExperimentContext, active_cell
from repro.fastpath import shardpar
from repro.obs import Observer, TraceEvent, analyze_timeline, write_jsonl
from repro.obs.alerts import evaluate_alerts
from repro.obs.audit import AuditReport, audit_events
from repro.obs.critpath import ScopeDecomposition, decompose_recoveries
from repro.obs.recovery import RecoveryTree
from repro.obs.report import FailoverSpan, TimelineReport
from repro.obs.series import (
    DipSummary,
    SeriesFrame,
    derive_dip,
    windowed_goodput,
)
from repro.obs.slo import SloReport, compute_slo
from repro.perf.report import ReportTable
from repro.perf.sharding import ShardedThroughputReport, sharded_aggregate

SHARD_COUNTS = (1, 2, 4, 8)

#: Failover-timeline defaults (all in simulated microseconds).
SLOT_US = 1_000.0
SLOTS = 28
OFFERED_PER_SHARD_PER_SLOT = 2
#: ``(shard_id, at_us)`` per primary crash; the first is the outage the
#: timeline measures.
CRASHES = ((2, 5_250.0),)
HEARTBEAT_INTERVAL_US = 100.0
HEARTBEAT_TIMEOUT_US = 500.0
RESTORE_BYTES_PER_US = 300.0
#: Run this far past the load so the retry backlog fully drains.
DRAIN_US = 30_000.0


@dataclass
class SlotSample:
    """One timeline slot: what was offered and what completed."""

    start_us: float
    offered: int
    completed: int


@dataclass
class OutageTimeline:
    """The measured dip-and-recovery curve of one serving unit's outage
    — a shard's failover or a group's quorum loss. The outage span, the
    slot completions and the router totals are derived from the trace
    (:func:`~repro.obs.report.analyze_timeline`), never copied from the
    live objects."""

    #: Scope prefix of the serving units: ``"shard"`` or ``"group"``.
    scope_prefix: str
    num_units: int
    slots: int
    slot_us: float
    #: Transactions offered per unit per slot.
    offered_per_unit: int
    downed_unit: int
    #: The raw trace everything below is derived from.
    trace_events: List[TraceEvent]
    #: The sampled time series recorded alongside the trace.
    series: SeriesFrame
    #: The downed unit's crash-to-restoration arc.
    outage: FailoverSpan = field(init=False)
    samples: List[SlotSample] = field(init=False)
    router_stats: Dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        report = self.trace_report
        self.outage = next(
            s for s in report.failovers if s.scope == self.downed_scope
        )
        # One sample per slot (one report window each), plus a catch-up
        # slot for whatever completed past the sampled horizon — those
        # completions still belong to the run.
        self.samples = [
            SlotSample(slot * self.slot_us, self.normal_per_slot, completed)
            for slot, completed in enumerate(report.window_counts(self.slots))
        ]
        end_us = self.slots * self.slot_us
        tail = report.completions_between(end_us, float("inf"))
        if tail:
            self.samples.append(SlotSample(end_us, 0, tail))
        self.router_stats = dict(report.routing)

    @classmethod
    def from_run(
        cls,
        observer: Observer,
        routed: int,
        completed: int,
        trace_path: Optional[Union[str, "object"]],
        **fields,
    ) -> "OutageTimeline":
        """The record of the finished run ``observer`` recorded: the
        router's own ``routed`` / ``completed`` counts to cross-check,
        and the remaining dataclass ``fields``. ``trace_path``
        additionally dumps the trace (and the metrics snapshot) as
        JSONL for ``python -m repro.obs.report``."""
        # Annotate the trace with the burn-rate alert schedule its own
        # downtime record justifies. Appended post-run (every consumer
        # selects events by name, none by position), computed purely
        # from the recorded events.
        events = list(observer.recorder.events)
        events += evaluate_alerts(events)
        timeline = cls(trace_events=events, **fields)
        # The trace must agree with the router's own bookkeeping — the
        # observer is a recorder, never a participant.
        assert timeline.router_stats["routed"] == routed
        assert timeline.router_stats["completed"] == completed
        if trace_path is not None:
            write_jsonl(trace_path, events, metrics=observer.registry)
        return timeline

    # -- derivations --------------------------------------------------------

    @property
    def downed_scope(self) -> str:
        return f"{self.scope_prefix}.{self.downed_unit}"

    @property
    def normal_per_slot(self) -> int:
        return self.num_units * self.offered_per_unit

    @property
    def degraded_per_slot(self) -> int:
        return (self.num_units - 1) * self.offered_per_unit

    @cached_property
    def trace_report(self) -> TimelineReport:
        """The timeline report derived from the recorded trace."""
        return analyze_timeline(self.trace_events, window_us=self.slot_us)

    @cached_property
    def audit(self) -> AuditReport:
        """The online trace auditor's verdict on the recorded trace
        (run once per record)."""
        return audit_events(self.trace_events)

    @cached_property
    def slo(self) -> SloReport:
        """The trace's downtime folded into an audit-confirmed
        availability report."""
        return compute_slo(self.trace_events, audit_ok=self.audit.ok)

    def outage_slots(self) -> List[SlotSample]:
        """Slots that lie fully inside the unavailability window."""
        return [
            s for s in self.samples
            if s.start_us > self.outage.crash_at_us
            and s.start_us + self.slot_us <= self.outage.restored_at_us
        ]

    def recovered_slots(self) -> List[SlotSample]:
        """Slots starting after service was restored *and* the retry
        backlog drained (completions back at the offered rate)."""
        return [
            s for s in self.samples
            if s.start_us > self.outage.restored_at_us
            and s.completed == self.normal_per_slot
        ]

    def goodput_windows(self) -> List[float]:
        """Completions per slot derived from the sampled series."""
        return windowed_goodput(self.series, "router.completed", self.slot_us)

    def series_dip(self) -> Optional[DipSummary]:
        """Dip-and-recovery summary of the sampled goodput curve."""
        return derive_dip(
            self.goodput_windows(), self.slot_us, float(self.normal_per_slot)
        )

    def figure(
        self, title: str, lost_mark: str, restored_mark: str, tail: str
    ) -> str:
        """One bar of completions per slot, the slots holding the
        outage's two instants marked, and the router's totals (ending
        in the architecture's own ``tail``)."""
        lines = [title, "=" * len(title)]
        instants = (
            (lost_mark, self.outage.crash_at_us),
            (restored_mark, self.outage.restored_at_us),
        )
        for sample in self.samples:
            marks = [
                mark for mark, at_us in instants
                if sample.start_us <= at_us < sample.start_us + self.slot_us
            ]
            bar = "#" * sample.completed
            lines.append(
                f"  {sample.start_us / 1000:>5.1f} ms  "
                f"{sample.completed:>3}  {bar} {' '.join(marks)}".rstrip()
            )
        lines.append(
            f"  router: {self.router_stats['routed']} routed, "
            f"{self.router_stats['retries']} retries, {tail}"
        )
        return "\n".join(lines)

    # -- the shared check ---------------------------------------------------

    def check(self) -> Tuple[ScopeDecomposition, RecoveryTree]:
        """Everything a single-outage timeline must satisfy whatever
        its architecture. Returns the downed scope's recovery
        decomposition and its recovery tree for the architecture's own
        assertions (dominant phase, resume link)."""
        n = self.num_units
        normal = self.normal_per_slot
        degraded = self.degraded_per_slot
        outage = self.outage
        unit_scopes = [f"{self.scope_prefix}.{unit}" for unit in range(n)]

        # -- the dip ----------------------------------------------------
        pre_crash = [
            s for s in self.samples
            if s.start_us + self.slot_us <= outage.crash_at_us
        ]
        assert pre_crash and all(s.completed == normal for s in pre_crash), (
            "a healthy cluster must complete the offered rate"
        )
        outage_slots = self.outage_slots()
        assert len(outage_slots) >= 3, "outage window too short to observe"
        assert all(s.completed == degraded for s in outage_slots), (
            f"outage slots should degrade to exactly (n-1)/n = "
            f"{degraded}/{normal}: {[s.completed for s in outage_slots]}"
        )
        assert self.recovered_slots(), "throughput never recovered"
        # The retried backlog drains: nothing is lost end to end.
        offered = sum(s.offered for s in self.samples)
        completed = sum(s.completed for s in self.samples)
        assert completed == offered, (completed, offered)
        assert self.router_stats["dropped"] == 0
        assert self.router_stats["retries"] > 0

        # -- trace consistency ------------------------------------------
        report = self.trace_report
        assert report.failovers == [outage], (
            "exactly one unit, the downed one, may have an outage"
        )
        # Every unit — downed one included — eventually completed
        # exactly what it was offered; the dip was delay, not loss.
        assert report.per_scope_completions == {
            scope: self.slots * self.offered_per_unit for scope in unit_scopes
        }

        # -- series consistency -----------------------------------------
        # The sampled SeriesFrame must tell the same story as the
        # trace, window for window: goodput derived from the sampler's
        # cumulative completion counter equals the trace-derived
        # half-open window counts exactly, and the dip-and-recovery
        # summaries computed from each agree.
        assert len(self.series) > 0, "sampler recorded no ticks"
        deltas = self.goodput_windows()
        trace_counts = [float(c) for c in report.window_counts(len(deltas))]
        assert deltas == trace_counts, "series windows diverge from trace"
        assert sum(deltas) == float(completed)
        series_dip = self.series_dip()
        trace_dip = derive_dip(trace_counts, self.slot_us, float(normal))
        assert series_dip is not None and series_dip == trace_dip
        assert series_dip.dip_floor == float(degraded)
        # The dip's duration brackets the measured downtime to within
        # the slot quantization on each side.
        assert abs(
            series_dip.time_to_recover_us - outage.downtime_us
        ) <= 2 * self.slot_us
        # Per-scope cumulative counters land on the per-unit totals.
        for scope in unit_scopes:
            assert self.series.last(f"{scope}.completed") == float(
                report.per_scope_completions[scope]
            )

        # -- audit + SLO ------------------------------------------------
        # A clean run must satisfy every replication invariant the
        # auditor knows, and the availability accounting must charge
        # the measured downtime to exactly the downed unit.
        assert self.audit.ok, self.audit.render()
        slo = self.slo
        assert slo.audit_ok is True
        by_scope = {s.scope: s for s in slo.scopes}
        assert sorted(by_scope) == sorted(unit_scopes)
        for scope in unit_scopes:
            if scope == self.downed_scope:
                assert by_scope[scope].failovers == 1
                assert by_scope[scope].availability < 1.0
            else:
                assert by_scope[scope].downtime_us == 0.0
                assert by_scope[scope].availability == 1.0
        # Cluster availability loses exactly the downed unit's share.
        expected = (n - 1 + by_scope[self.downed_scope].availability) / n
        assert abs(slo.cluster_availability - expected) < 1e-12

        # -- recovery decomposition -------------------------------------
        # That the recovery-span roots and the SLO's downtime windows
        # tell one story, scope by scope and window by window, is the
        # auditor's recovery-span-tiles-downtime rule (audit.ok above).
        decomposition = decompose_recoveries(self.trace_events)
        downed = decomposition.scope(self.downed_scope)
        assert downed.recoveries == 1
        assert abs(downed.total_downtime_us - outage.downtime_us) <= 1e-6
        # The resume instant links the recovery to the first served
        # completion, at or after restoration.
        assert downed.resume_gaps == 1
        tree = decomposition.trees[0]
        assert tree.resume_gap_us is not None and tree.resume_gap_us >= 0.0

        # -- alerts -----------------------------------------------------
        # The recorded burn-rate alerts are grounded — every fire
        # justified by real downtime, no justified window missed (the
        # auditor's alert-grounded rule, audit.ok above) — and only the
        # downed unit's scope ever pages.
        fires = [e for e in self.trace_events if e.name == "alert.fire"]
        assert fires, "an outage this long must trip the burn-rate rules"
        assert {str(e.attrs["scope"]) for e in fires} == {self.downed_scope}
        resolves = [e for e in self.trace_events if e.name == "alert.resolve"]
        assert len(resolves) == len(fires), "every alert must resolve"
        return downed, tree


def check_failover_timeline(timeline: OutageTimeline) -> None:
    """The shared timeline check, plus what only a pair failover shows."""
    downed, tree = timeline.check()
    # The crashed shard's epoch bumped under the router's snapshot.
    assert timeline.router_stats["redirects"] > 0
    # Downtime is bounded by detection plus the mirror restore.
    outage = timeline.outage
    assert outage.downtime_us <= (
        HEARTBEAT_TIMEOUT_US + 2 * HEARTBEAT_INTERVAL_US
        + outage.bytes_restored / RESTORE_BYTES_PER_US + 1.0
    )
    # Passive v1's whole-database mirror restore dominates the
    # failover — the trace-derived root cause, not an assumption.
    assert downed.dominant_phase == "catchup"
    assert downed.share("catchup") > 0.9
    # A passive pair's promoted engine serves bare (no commit-span
    # recorder), so the resume instant's commit-tree link is absent
    # here; the quorum experiment asserts the linked variant.
    assert tree.resume_commit_trace_id is None


@dataclass
class ShardingResult:
    scaling: List[ShardedThroughputReport]
    timeline: OutageTimeline

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
            f"failover dip: {timeline.num_units} shards served "
            f"{timeline.normal_per_slot}/slot, crash held "
            f"{len(timeline.outage_slots())} slots at "
            f"{timeline.degraded_per_slot}/slot "
            f"(downtime {timeline.outage.downtime_us / 1000:.1f} ms), "
            f"then recovered"
        )
        return table

    def timeline_figure(self) -> str:
        timeline = self.timeline
        return timeline.figure(
            f"Extension: aggregate completions per {timeline.slot_us:.0f} us "
            f"slot across one shard failover "
            f"({timeline.num_units} shards, crash at "
            f"{timeline.outage.crash_at_us / 1000:.2f} ms)",
            "<- crash",
            "<- restored",
            f"{timeline.router_stats['redirects']} redirects, "
            f"{timeline.router_stats['dropped']} dropped",
        )

    def check(self) -> None:
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
        check_failover_timeline(self.timeline)


def failover_plan(
    num_shards: int = 4,
    slots: int = SLOTS,
    slot_us: float = SLOT_US,
    offered_per_shard: int = OFFERED_PER_SHARD_PER_SLOT,
    crashes: tuple = CRASHES,
    db_bytes_per_shard: int = 4 * MB,
    seed: int = 42,
) -> shardpar.TimelinePlan:
    """The failover timeline as a recorded schedule: a fixed
    round-robin load (``offered_per_shard`` transactions per shard per
    slot) plus the primary crashes — ``crashes`` is a tuple of
    ``(shard_id, at_us)`` pairs, each shard at most once (the pair
    model has one backup)."""
    return shardpar.TimelinePlan(
        num_shards=num_shards,
        mode="passive",
        version="v1",  # whole-database mirror restore: a visible window
        db_bytes_per_shard=db_bytes_per_shard,
        log_bytes=512 * 1024,
        heartbeat_interval_us=HEARTBEAT_INTERVAL_US,
        heartbeat_timeout_us=HEARTBEAT_TIMEOUT_US,
        restore_bytes_per_us=RESTORE_BYTES_PER_US,
        workload="debit-credit",
        seed=seed,
        slots=slots,
        slot_us=slot_us,
        offered_per_shard=offered_per_shard,
        horizon_us=slots * slot_us + DRAIN_US,
        crashes=tuple(crashes),
    )


def failover_timeline(
    observer: Optional[Observer] = None,
    trace_path: Optional[Union[str, "object"]] = None,
    **plan_args,
) -> OutageTimeline:
    """Drive a sharded cluster through :func:`failover_plan`
    (``plan_args`` are its arguments) and derive the per-slot timeline
    of the first crash *from the recorded trace*.

    An :class:`~repro.obs.Observer` is always attached (recording never
    touches model state, so the numbers match an unobserved run bit for
    bit). Pass ``trace_path`` to additionally dump the trace (and
    metrics snapshot) as JSONL for ``python -m repro.obs.report``.
    """
    if observer is None:
        observer = Observer()
    plan = failover_plan(**plan_args)
    outcome = shardpar.execute(plan, observer=observer)
    crashed_shard, crash_at_us = plan.crashes[0]
    timeline = OutageTimeline.from_run(
        observer, outcome.routed, outcome.completed, trace_path,
        scope_prefix="shard",
        num_units=plan.num_shards,
        slots=plan.slots,
        slot_us=plan.slot_us,
        offered_per_unit=plan.offered_per_shard,
        downed_unit=crashed_shard,
        series=outcome.frame,
    )
    # The span the trace yields is the crash the plan scheduled and the
    # takeover the pair itself reported.
    assert timeline.outage.crash_at_us == crash_at_us
    assert (
        timeline.outage.downtime_us
        == outcome.takeover_downtime_us[crashed_shard]
    )
    return timeline


def reads(workload: str) -> dict:
    """One shard's stream is the active Debit-Credit cell."""
    if workload != "debit-credit":
        return {}
    return {"single": (active_cell(workload), None)}


def run(ctx: ExperimentContext) -> ShardingResult:
    read = reads("debit-credit")["single"]
    single = ctx.report(*read)
    per_txn_trace = ctx.read(*read).packets_per_txn()
    scaling = [
        sharded_aggregate(single, n, per_txn_trace=per_txn_trace)
        for n in SHARD_COUNTS
    ]
    timeline = failover_timeline(seed=ctx.settings.seed)
    return ShardingResult(scaling=scaling, timeline=timeline)
