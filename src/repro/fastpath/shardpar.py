"""The timeline driver, and the sharded failover timeline as a plan.

:func:`drive` is the one run scaffold of the pair, shard and quorum
failover experiments. :class:`TimelinePlan` is the sharded experiment's
recorded schedule — a frozen description of the cluster geometry, the
load shape and the crash plan — and :func:`execute` builds its
cluster and drives it, so the trace, the sampled series and every
causal-trace id are a pure function of the plan.

The module keeps its name, and :func:`execute` its ``jobs`` parameter,
because the frozen performance ledger imports it so; the per-shard
parallel executor the name refers to was never faster than this one
and is gone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.observer import Observer
from repro.obs.series import (
    SeriesFrame,
    TimeSeriesSampler,
    router_probes,
    series_interval_us,
    sim_probes,
)
from repro.obs.trace import TraceEvent
from repro.shard.cluster import RoutedCluster, ShardedCluster
from repro.shard.router import Router
from repro.shard.workload import ShardedWorkload
from repro.vista.api import EngineConfig

#: Attempt budget of a driven router: with the default backoff (250 us
#: doubling to a 4 ms cap) twelve attempts ride out ~30 ms — twice the
#: longest outage the timelines schedule (a 14.5 ms mirror restore).
MAX_ATTEMPTS = 12


def fixed_load(
    slots: int, slot_us: float, keys: Sequence[int], offered_per_unit: int
) -> Tuple[Tuple[float, int], ...]:
    """A fixed load as ``(at_us, key)`` in submission order: at every
    slot start, ``offered_per_unit`` transactions on each unit's key."""
    return tuple(
        (slot * slot_us, key)
        for slot in range(slots)
        for key in keys
        for _ in range(offered_per_unit)
    )


def drive(
    cluster: RoutedCluster,
    workload,
    submissions: Iterable[Tuple[float, int]],
    schedule_faults: Callable[[RoutedCluster], None],
    probes: Callable[[Router], Dict[str, Callable[[], float]]],
    horizon_us: float,
    slot_us: float,
) -> Tuple[Router, SeriesFrame]:
    """Run one timeline on the built ``cluster`` up to ``horizon_us``,
    recording into its observer; returns the router and the sampled
    frame.

    The order — setup, router, sampler (columns ``probes(router)``),
    load, ``schedule_faults(cluster)``, run — fixes the push, trace and
    id streams. The sampler's ticks are pre-scheduled *before* the
    load, so at any shared timestamp they fire first and each sample
    sees exactly the ``[0, t)`` prefix — the property that makes the
    series windows match the trace windows bit for bit. The tick
    divides the slot width (``REPRO_SERIES`` can select a finer divisor
    without changing any measured number).
    """
    cluster.setup(workload)
    observer = cluster.observer
    router = Router(
        cluster, workload, max_attempts=MAX_ATTEMPTS, observer=observer
    )
    sampler = TimeSeriesSampler(observer=observer)
    sampler.add_probes(probes(router))
    sampler.attach(
        cluster.sim, series_interval_us(slot_us, slot_us), horizon_us
    )
    for at_us, key in submissions:
        router.submit(key=key, at_us=at_us)
    schedule_faults(cluster)
    cluster.run_until(horizon_us)
    return router, sampler.frame


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
    slots: int
    slot_us: float
    #: The load: this many transactions per shard at every slot start,
    #: keyed to the first branch each shard owns.
    offered_per_shard: int
    horizon_us: float
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
    cluster = ShardedCluster(
        plan.num_shards,
        mode=plan.mode,
        version=plan.version,
        config=EngineConfig(
            db_bytes=plan.db_bytes_per_shard, log_bytes=plan.log_bytes
        ),
        heartbeat_interval_us=plan.heartbeat_interval_us,
        heartbeat_timeout_us=plan.heartbeat_timeout_us,
        restore_bytes_per_us=plan.restore_bytes_per_us,
        observer=observer,
    )

    def schedule_crashes(cluster: ShardedCluster) -> None:
        for shard_id, at_us in plan.crashes:
            cluster.crash(shard_id, 0, at_us)

    workload = ShardedWorkload(
        plan.workload, plan.num_shards, plan.db_bytes_per_shard, seed=plan.seed
    )
    router, frame = drive(
        cluster,
        workload,
        fixed_load(
            plan.slots, plan.slot_us,
            [shard.start for shard in workload.partitioner.ranges],
            plan.offered_per_shard,
        ),
        schedule_crashes,
        lambda router: {**sim_probes(cluster.sim), **router_probes(router)},
        plan.horizon_us,
        plan.slot_us,
    )
    return Outcome(
        events=list(observer.recorder.events),
        frame=frame,
        routed=router.routed,
        completed=router.completed,
        dropped=router.dropped,
        takeover_downtime_us={
            shard_id: report.downtime_us
            for shard_id, report in cluster.takeovers.items()
        },
    )
