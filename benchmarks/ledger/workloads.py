"""The six ledger workloads.

Each workload is one closed loop of a single client in one process
and one thread (how the paper drives its benchmarks): ``setup`` builds
the inputs from the seed, ``measure`` is the timed phase — driving,
takeover and verification are all on the clock — and ``simulated``
yields every simulated output for the digest afterwards. ``layers``
turns the traced pass's spans and the public counters the run left
behind into per-layer metrics.

Nothing here names a benchmark to ``src/``: the program receives only
``ExperimentSettings`` defaults, a seed and sizes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import statistics
import time
from typing import Callable, Dict, Iterator, List, Tuple

import probes
from spec import EXPERIMENT_KEYS
from tracer import timed_calls

from repro.experiments import cells as grid_cells
from repro.experiments.common import (
    WORKLOAD_CLASSES,
    ExperimentContext,
    ExperimentSettings,
)
from repro.fastpath.replay import GLOBAL_REPLAY_CACHE
from repro.memory.rio import RioMemory
from repro.replication.active import ActiveReplicatedSystem
from repro.replication.commit_safety import CommitSafety
from repro.replication.passive import PassiveReplicatedSystem
from repro.sim.engine import Simulator
from repro.vista.factory import create_engine
from repro.workloads import run_workload

PAPER_WORKLOADS = ("debit-credit", "order-entry")
VERSIONS = ("v0", "v1", "v2", "v3")


class Checks:
    """Correctness operations: the numerator and denominator of
    ``fail_share``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def that(self, label: str, ok: bool, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failures.append(label)

    def passes(self, label: str, check: Callable[[], object]) -> None:
        """``check`` raises AssertionError on failure (the repo's
        ``verify``/``check()`` convention)."""
        try:
            check()
        except AssertionError as error:
            self.that(f"{label}: {error}", False)
        else:
            self.that(label, True)


def _replay_metrics() -> Dict[str, float]:
    cache = GLOBAL_REPLAY_CACHE
    lookups = cache.hits + cache.misses
    return {
        "fastpath.replay_hits": cache.hits,
        "fastpath.replay_misses": cache.misses,
        "fastpath.replay_hit_ratio": cache.hits / lookups if lookups else 0.0,
        "fastpath.replay_entries": len(cache),
    }


def sim_metrics(timer) -> Dict[str, float]:
    return {
        "sim.events": timer.counted,
        "sim.run_s": timer.seconds,
        "sim.events_per_s": timer.counted / timer.seconds if timer.seconds else 0.0,
    }


def time_simulator():
    """Time inside ``Simulator.run`` and the events it processed."""
    return timed_calls(
        [(Simulator, "run")], count=lambda args: args[0].events_processed)


class Workload:
    """What ``child.py`` drives; subclasses add ``setup``, ``measure``,
    ``simulated`` and ``layers``."""

    #: Kernel probes run after this workload's traced pass.
    probes: Tuple[Callable, ...] = ()

    def instruments(self, tracer):
        """Timers to attach for the traced pass (a context manager)."""
        return contextlib.nullcontext()


# -- txn-standalone / txn-passive / txn-active ---------------------------------


@dataclasses.dataclass
class _Cell:
    label: str
    group: str  # the per-layer rate this cell pools into
    target: object
    workload: object
    rios: Tuple[RioMemory, ...]
    result: object = None
    txn_us: List[float] = dataclasses.field(default_factory=list)


def _standalone(version):
    def build(config):
        rio = RioMemory(f"standalone-{version}")
        return create_engine(version, rio, config), (rio,)
    return build


def _passive(version):
    def build(config):
        system = PassiveReplicatedSystem(version, config)
        return system, (system.primary_rio, system.backup_rio)
    return build


def _active(safety):
    def build(config):
        system = ActiveReplicatedSystem(config, safety=safety)
        return system, (system.primary_rio, system.backup_rio)
    return build


class TxnWorkload(Workload):
    """Engines or replicated pairs x both paper workloads through
    ``run_workload``; replicated cells then crash the primary, fail
    over and verify the backup holds exactly the committed state."""

    def __init__(self, layer: str, builders: Dict[str, Callable],
                 probe_list: Tuple[Callable, ...]):
        self.layer = layer  # which layer's ``<group>_txn_per_s`` it feeds
        self.builders = builders
        self.probes = probe_list

    def setup(self, seed: int, sizes: dict, tracer):
        settings = ExperimentSettings(seed=seed)
        self.settings, self.txns = settings, sizes["txns_per_cell"]
        self.cells: List[_Cell] = []
        for group, build in self.builders.items():
            for name in PAPER_WORKLOADS:
                label = f"{group}/{name}"
                with tracer.span("cell.setup", cell=label):
                    target, rios = build(settings.engine_config())
                    workload = WORKLOAD_CLASSES[name](
                        settings.allocated_db_bytes, seed=seed)
                    with tracer.span("workload.setup", cell=label):
                        workload.setup(target)
                    sync = getattr(target, "sync_initial", None)
                    if sync is not None:
                        with tracer.span("sync_initial", cell=label):
                            sync()
                self.cells.append(
                    _Cell(label, group, target, workload, rios))

    @contextlib.contextmanager
    def instruments(self, tracer):
        # Host time per transaction: wrap each workload instance's own
        # run_transaction (the driver looks it up per call).
        for cell in self.cells:
            cell.workload.run_transaction = _timed_each(
                cell.workload.run_transaction, cell.txn_us)
        yield

    def measure(self, tracer, checks: Checks) -> None:
        for cell in self.cells:
            with tracer.span("cell", cell=cell.label):
                target, workload = cell.target, cell.workload
                with tracer.span("run_workload", cell=cell.label):
                    cell.result = run_workload(
                        target, workload, self.txns,
                        warmup=self.settings.warmup)
                checks.passes(f"{cell.label} verify",
                              lambda: workload.verify(target))
                if not hasattr(target, "failover"):
                    continue
                committed = target.engine.db.snapshot()
                with tracer.span("failover", cell=cell.label):
                    target.fail_primary()
                    backup = target.failover()
                checks.passes(f"{cell.label} backup verify",
                              lambda: workload.verify(backup))
                checks.that(f"{cell.label} backup == committed state",
                            backup.db.snapshot() == committed)

    def simulated(self) -> Iterator[object]:
        for cell in self.cells:
            yield cell.label, _run_result_record(cell.result)

    def layers(self, tracer) -> Dict[str, float]:
        driven = self.txns + self.settings.warmup
        run_s = {s["cell"]: s["end"] - s["start"]
                 for s in tracer.spans if s["name"] == "run_workload"}
        metrics: Dict[str, float] = {}
        for group in self.builders:
            members = [c for c in self.cells if c.group == group]
            metrics[f"{self.layer}.{group}_txn_per_s"] = (
                driven * len(members) / sum(run_s[c.label] for c in members))
        samples = sorted(us for cell in self.cells for us in cell.txn_us)
        metrics.update({
            "workloads.run_s": sum(run_s.values()),
            "workloads.setup_s": tracer.total("workload.setup"),
            "workloads.txns": len(samples),
            "workloads.txn_p50_us": statistics.median(samples),
            "workloads.txn_p99_us": samples[int(0.99 * (len(samples) - 1))],
        })
        regions = [r for c in self.cells for rio in c.rios for r in rio.regions()]
        metrics["memory.writes"] = sum(r.writes_observed for r in regions)
        metrics["memory.bytes_written"] = sum(r.bytes_written for r in regions)
        interfaces = [
            interface for cell in self.cells
            for name in ("interface", "primary_interface", "backup_interface")
            if (interface := getattr(cell.target, name, None)) is not None
        ]
        if interfaces:
            packets = sum(i.write_buffer.packets_emitted for i in interfaces)
            wire = sum(i.write_buffer.bytes_emitted for i in interfaces)
            stores = sum(i.io_stores for i in interfaces)
            metrics.update({
                "hardware.packets": packets,
                "hardware.mean_packet_bytes": wire / packets,
                "san.io_stores": stores,
                "san.bytes_sent": sum(i.bytes_sent for i in interfaces),
                "san.stores_per_s": stores / sum(run_s.values()),
                "replication.sync_initial_s": tracer.total("sync_initial"),
                "replication.takeover_ms":
                    1e3 * statistics.mean(tracer.durations("failover")),
            })
        redo = [c.result.redo_records for c in self.cells
                if c.result.redo_records is not None]
        if redo:
            metrics["replication.redo_records"] = sum(redo)
        metrics.update(_replay_metrics())
        return metrics


def _timed_each(fn: Callable, sink_us: List[float]) -> Callable:
    def timed(target):
        started = time.perf_counter()
        fn(target)
        sink_us.append((time.perf_counter() - started) * 1e6)
    return timed


def _run_result_record(result) -> dict:
    trace = result.packet_trace
    return {
        "workload": result.workload, "target": result.target_kind,
        "transactions": result.transactions, "crashed": result.crashed,
        "counters": dataclasses.asdict(result.counters),
        "profile": dataclasses.asdict(result.profile),
        "traffic_bytes": result.traffic_bytes,
        "packets": sorted(trace.histogram.items()) if trace else None,
        "io_stores": result.io_stores, "ack_bytes": result.ack_bytes,
        "redo_records": result.redo_records,
    }


# -- smp-des -------------------------------------------------------------------

#: SmpValidationResult.check()'s tolerance: simulated vs closed form.
SMP_TOLERANCE = 0.35


class SmpDes(Workload):
    """The 24 discrete-event points ``smp_sim_tasks`` builds; measuring
    the stream cells and the calibration they need is set-up."""

    probes = (probes.sim_heap,)

    def setup(self, seed: int, sizes: dict, tracer):
        settings = ExperimentSettings(
            transactions=sizes["transactions"], seed=seed)
        ctx = ExperimentContext(settings)
        self.duration_us = sizes["duration_us"]
        with tracer.span("smp_sim_tasks"):
            self.tasks = grid_cells.smp_sim_tasks(ctx)
        # The closed form each point is held to (figures 2/3's
        # min(n * single, link capacity)), from the same estimator.
        estimator = ctx.estimator()
        self.analytic = {}
        for key, result, _cpu_us, processors in self.tasks:
            _, workload, config, _, _ = key
            single = (estimator.active(result) if config == "active"
                      else estimator.passive(result))
            self.analytic[key] = estimator.smp_aggregate(single, processors)
        self.points: Dict[tuple, object] = {}

    def measure(self, tracer, checks: Checks) -> None:
        from repro.perf.smp_sim import simulate_from_run

        for key, result, cpu_us, processors in self.tasks:
            with tracer.span("simulate_from_run", point="/".join(map(str, key[1:4]))):
                self.points[key] = simulate_from_run(
                    result, cpu_us=cpu_us, processors=processors,
                    duration_us=self.duration_us)
        for key, point in self.points.items():
            error = abs(point.aggregate_tps / self.analytic[key] - 1.0)
            checks.that(f"smp point {key[1:4]} within {SMP_TOLERANCE} of "
                        f"the closed form (off by {error:.3f})",
                        error <= SMP_TOLERANCE)

    def simulated(self) -> Iterator[object]:
        for key, point in self.points.items():
            yield key[1:4], dataclasses.asdict(point)

    def layers(self, tracer) -> Dict[str, float]:
        errors = [abs(point.aggregate_tps / self.analytic[key] - 1.0)
                  for key, point in self.points.items()]
        return {
            "perf.smp_sim_s": tracer.total("simulate_from_run"),
            "perf.smp_sim_points": len(self.points),
            "perf.smp_closed_form_err_pct": 100.0 * statistics.mean(errors),
        }


# -- failover-timeline ---------------------------------------------------------


class FailoverTimeline(Workload):
    """A sharded double-crash failover and a quorum-loss timeline,
    observer attached, then audit + SLO + recovery decomposition of
    both traces."""

    probes = (probes.sim_wheel,)

    def setup(self, seed: int, sizes: dict, tracer):
        from repro.experiments.extension_sharding import failover_plan

        self.seed, self.quorum_slots = seed, sizes["quorum_slots"]
        with tracer.span("failover_plan"):
            self.plan = failover_plan(
                num_shards=sizes["num_shards"], slots=sizes["slots"],
                offered_per_shard=sizes["offered_per_shard"],
                crashes=tuple(sizes["crashes"]), seed=seed)

    def measure(self, tracer, checks: Checks) -> None:
        from repro.experiments.extension_quorum import quorum_timeline
        from repro.fastpath import shardpar
        from repro.obs import Observer
        from repro.obs.audit import audit_events
        from repro.obs.critpath import decompose_recoveries
        from repro.obs.slo import compute_slo

        with tracer.span("shardpar.execute"):
            outcome = shardpar.execute(self.plan, jobs=1, observer=Observer())
        with tracer.span("quorum_timeline"):
            quorum = quorum_timeline(slots=self.quorum_slots, seed=self.seed)
        self.outcome, self.quorum = outcome, quorum
        self.analyses = {}
        for name, events in (("shard", outcome.events),
                             ("quorum", quorum.trace_events)):
            with tracer.span("audit", trace=name):
                audit = audit_events(events)
                slo = compute_slo(events, audit_ok=audit.ok)
                recovery = decompose_recoveries(events)
            self.analyses[name] = (audit, slo, recovery)
            checks.that(
                f"{name} trace audit: {audit.violations[:3]}", audit.ok,
                weight=max(1, audit.commits_checked + audit.spans_checked))
            decomposed = sum(s.total_downtime_us for s in recovery.scopes)
            checks.that(
                f"{name} recovery spans tile the SLO downtime "
                f"({decomposed} vs {slo.total_downtime_us})",
                abs(decomposed - slo.total_downtime_us)
                <= 1e-6 * max(1.0, slo.total_downtime_us))
        checks.that("every routed shard operation completed",
                    outcome.routed == outcome.completed and not outcome.dropped)
        for shard_id, _at_us in self.plan.crashes:
            checks.that(f"shard {shard_id} took over",
                        outcome.takeover_downtime_us.get(shard_id, 0.0) > 0.0)
        stats = quorum.router_stats
        checks.that("every quorum operation completed",
                    stats["routed"] == stats["completed"] and not stats["dropped"])
        checks.that("quorum replicas converged", quorum.converged)

    def simulated(self) -> Iterator[object]:
        outcome, quorum = self.outcome, self.quorum
        yield "shard", [outcome.routed, outcome.completed, outcome.dropped,
                        sorted(outcome.takeover_downtime_us.items())]
        yield "quorum", [sorted(quorum.router_stats.items()), quorum.converged]
        for name, events in (("shard", outcome.events),
                             ("quorum", quorum.trace_events)):
            _audit, slo, recovery = self.analyses[name]
            yield name, slo.to_dict(), recovery.to_dict()
            for event in events:
                yield event.to_dict()

    def layers(self, tracer) -> Dict[str, float]:
        outcome, quorum = self.outcome, self.quorum
        return {
            "cluster.takeovers": len(outcome.takeover_downtime_us),
            "cluster.sim_downtime_us": sum(outcome.takeover_downtime_us.values()),
            "shard.timeline_s": tracer.total("shardpar.execute"),
            "shard.routed": outcome.routed,
            "shard.completed": outcome.completed,
            "shard.trace_events": len(outcome.events),
            "quorum.timeline_s": tracer.total("quorum_timeline"),
            "quorum.ops_completed": quorum.router_stats["completed"],
            "quorum.trace_events": len(quorum.trace_events),
            "obs.analyze_s": tracer.total("audit"),
            "obs.audit_violations": sum(
                len(audit.violations) for audit, _, _ in self.analyses.values()),
        }


# -- grid-1000 -----------------------------------------------------------------


class Grid(Workload):
    """``repro-experiments --transactions N --seed S``, sequential,
    stdout captured: the ROADMAP's one top-line number."""

    def setup(self, seed: int, sizes: dict, tracer):
        self.argv = ["--transactions", str(sizes["transactions"]),
                     "--seed", str(seed), *sizes.get("experiments", ())]
        self.expected = len(sizes.get("experiments", EXPERIMENT_KEYS))
        self.stdout = ""
        self.ctx = None

    @contextlib.contextmanager
    def instruments(self, tracer):
        """A span around every ``EXPERIMENTS[key](ctx)`` call, and
        timers on the perf estimators and the SMP simulation."""
        from repro.experiments import extension_smp_sim, runner
        from repro.perf.throughput import ThroughputEstimator

        original = dict(runner.EXPERIMENTS)

        def spanned(key, fn):
            def run(ctx):
                self.ctx = ctx
                with tracer.span("experiment", key=key):
                    return fn(ctx)
            return run

        runner.EXPERIMENTS.update(
            {key: spanned(key, fn) for key, fn in original.items()})
        estimator_api = [
            (ThroughputEstimator, name)
            for name in ("standalone", "passive", "active", "smp_aggregate")
        ]
        try:
            with timed_calls(estimator_api) as self.estimator_timer, \
                    timed_calls([(extension_smp_sim, "simulate_from_run")]) \
                    as self.smp_timer:
                yield
        finally:
            runner.EXPERIMENTS.update(original)

    def measure(self, tracer, checks: Checks) -> None:
        from repro.experiments import runner

        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured):
                runner.main(self.argv)
        except AssertionError as error:
            # One check() failed and stopped the grid; the rest never ran.
            checks.that(f"experiment check(): {error!r}", False,
                        weight=self.expected)
        else:
            checks.that("every experiment check()", True, weight=self.expected)
        self.stdout = captured.getvalue()

    def simulated(self) -> Iterator[object]:
        # Everything but the closing line, which states the wall-clock.
        yield [line for line in self.stdout.splitlines()
               if not line.startswith("[all experiments passed")]

    def layers(self, tracer) -> Dict[str, float]:
        metrics = {
            f"experiments.{s['key']}_s": s["end"] - s["start"]
            for s in tracer.spans if s["name"] == "experiment"
        }
        metrics.update({
            "perf.estimator_s": self.estimator_timer.seconds,
            "perf.smp_sim_s": self.smp_timer.seconds,
            "perf.smp_sim_points": self.smp_timer.calls,
        })
        if self.ctx is not None and self.expected == len(EXPERIMENT_KEYS):
            metrics["perf.paper_err_pct"] = _paper_error_pct(self.ctx)
        metrics.update(_replay_metrics())
        return metrics


def _paper_error_pct(ctx: ExperimentContext) -> float:
    """Mean |modelled / paper - 1| over the Table 3/4/6 throughput
    cells (all cache hits on the grid's own context)."""
    from repro.experiments import table3, table4_5, table6_7
    from repro.perf.calibration import PAPER

    pairs = []
    for workload in PAPER_WORKLOADS:
        standalone = table3.run(ctx).tps[workload]
        passive = table4_5.run(ctx).tps[workload]
        for version in VERSIONS:
            pairs.append((standalone[version],
                          PAPER["standalone"][workload][version]))
            pairs.append((passive[version],
                          PAPER["passive"][workload][version]))
        pairs.append((table6_7.run(ctx).tps[workload]["active"],
                      PAPER["active"][workload]["active"]))
    return 100.0 * statistics.mean(
        abs(modelled / paper - 1.0) for modelled, paper in pairs)


WORKLOADS = {
    "txn-standalone": lambda: TxnWorkload(
        "vista", {v: _standalone(v) for v in VERSIONS},
        (probes.fastpath_diff, probes.memory_region)),
    "txn-passive": lambda: TxnWorkload(
        "replication", {v: _passive(v) for v in VERSIONS},
        (probes.hardware_wbuf, probes.memory_region)),
    "txn-active": lambda: TxnWorkload(
        "replication",
        {"active_1safe": _active(CommitSafety.ONE_SAFE),
         "active_2safe": _active(CommitSafety.TWO_SAFE)},
        ()),
    "smp-des": SmpDes,
    "failover-timeline": FailoverTimeline,
    "grid-1000": Grid,
}
