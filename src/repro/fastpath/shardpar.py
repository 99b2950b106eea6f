"""The sharded failover timeline as a recorded plan and its executor.

:class:`TimelinePlan` is the recorded schedule — a frozen
description of the cluster geometry, the submission stream and the
crash plan — and :func:`execute` runs it on one simulator, performing
the construction and scheduling steps in a fixed order so the trace,
the sampled series and every causal-trace id are a pure function of
the plan.

The module keeps its name, and :func:`execute` its ``jobs`` parameter,
because the frozen performance ledger imports it so; the per-shard
parallel executor the name refers to was never faster than this one
and is gone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.observer import Observer
from repro.obs.series import (
    SeriesFrame,
    TimeSeriesSampler,
    router_probes,
    sim_probes,
)
from repro.obs.trace import TraceEvent
from repro.shard.cluster import ShardedCluster
from repro.shard.router import Router
from repro.shard.workload import ShardedWorkload
from repro.vista.api import EngineConfig


@dataclass(frozen=True)
class TimelinePlan:
    """One recorded shard-cluster schedule. All times in simulated
    microseconds; everything here is plain data."""

    num_shards: int
    mode: str
    version: str
    db_bytes_per_shard: int
    log_bytes: int
    heartbeat_interval_us: float
    heartbeat_timeout_us: float
    restore_bytes_per_us: float
    workload: str
    seed: int
    max_attempts: int
    sample_interval_us: float
    sample_until_us: float
    horizon_us: float
    #: ``(at_us, key)`` per submission, in submission order.
    submissions: Tuple[Tuple[float, int], ...]
    #: ``(shard_id, at_us)`` per scheduled primary crash, in order.
    crashes: Tuple[Tuple[int, float], ...]


@dataclass
class Outcome:
    """What an execution produced — everything the timeline derivation
    consumes."""

    events: List[TraceEvent]
    frame: SeriesFrame
    routed: int
    completed: int
    dropped: int
    takeover_downtime_us: Dict[int, float]


def _build(plan: TimelinePlan, observer: Observer):
    """Build cluster, workload, router and sampler from the plan, in
    the order that fixes the push, trace and id streams."""
    config = EngineConfig(
        db_bytes=plan.db_bytes_per_shard, log_bytes=plan.log_bytes
    )
    cluster = ShardedCluster(
        plan.num_shards,
        mode=plan.mode,
        version=plan.version,
        config=config,
        heartbeat_interval_us=plan.heartbeat_interval_us,
        heartbeat_timeout_us=plan.heartbeat_timeout_us,
        restore_bytes_per_us=plan.restore_bytes_per_us,
        observer=observer,
    )
    workload = ShardedWorkload(
        plan.workload, plan.num_shards, plan.db_bytes_per_shard, seed=plan.seed
    )
    cluster.setup(workload)
    router = Router(
        cluster, workload, max_attempts=plan.max_attempts, observer=observer
    )
    sampler = TimeSeriesSampler(observer=observer)
    sampler.add_probes(sim_probes(cluster.sim))
    sampler.add_probes(router_probes(
        router, scopes={f"shard.{i}": i for i in range(plan.num_shards)}
    ))
    sampler.attach(cluster.sim, plan.sample_interval_us, plan.sample_until_us)
    return cluster, router, sampler


def execute(
    plan: TimelinePlan, jobs: int = 1, observer: Optional[Observer] = None
) -> Outcome:
    """Run the plan on one simulator, recording into ``observer``.

    ``jobs`` exists for one caller: the performance ledger's frozen
    ``failover-timeline`` workload passes ``jobs=1``. There is one
    executor, so anything else is an error.
    """
    if jobs != 1:
        raise ValueError(
            f"jobs={jobs}: the plan runs on one simulator (the per-shard "
            f"parallel executor was removed)"
        )
    if observer is None:
        observer = Observer()
    cluster, router, sampler = _build(plan, observer)
    for at_us, key in plan.submissions:
        router.submit(key=key, at_us=at_us)
    for shard_id, at_us in plan.crashes:
        cluster.schedule_primary_crash(shard_id, at_us)
    cluster.run_until(plan.horizon_us)
    return Outcome(
        events=list(observer.recorder.events),
        frame=sampler.frame,
        routed=router.routed,
        completed=router.completed,
        dropped=router.dropped,
        takeover_downtime_us={
            shard_id: report.downtime_us
            for shard_id, report in cluster.takeovers.items()
        },
    )
