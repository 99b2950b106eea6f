"""N independent primary-backup pairs behind one shard map.

A :class:`ShardedCluster` wires ``num_shards``
:class:`~repro.cluster.cluster.ReplicatedCluster` pairs onto a single
shared :class:`~repro.sim.engine.Simulator`: every pair keeps its own
heartbeat monitor, membership view and takeover path, so one shard's
primary crash triggers exactly one failover while the other shards
keep serving — the availability composition that turns the paper's
two-node story into a scale-out system. The cluster also maintains:

* a cluster-wide :class:`~repro.cluster.membership.Membership` over
  all ``2 * num_shards`` nodes (the N-member view machinery), and
* the authoritative :class:`~repro.shard.shardmap.ShardMap`, whose
  per-shard epochs fence requests routed with a stale view.

Requests enter through :meth:`execute`, which performs the server-side
checks a real shard server would: epoch fencing first, then
availability. Routers translate the resulting errors into redirects
and retries.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional

from repro.cluster.cluster import ReplicatedCluster, TakeoverReport
from repro.cluster.membership import Membership
from repro.errors import ConfigurationError, ShardUnavailableError
from repro.obs.observer import resolve_observer
from repro.shard.shardmap import ShardMap
from repro.shard.workload import ShardedWorkload
from repro.sim.engine import Simulator
from repro.sim.events import SHAPE_SHARED, default_event_queue
from repro.vista.api import EngineConfig


class ShardedCluster:
    """``num_shards`` replicated pairs serving one logical database.

    Args:
        num_shards: how many primary-backup pairs to run.
        mode / version / config: forwarded to every pair (see
            :class:`~repro.cluster.cluster.ReplicatedCluster`); the
            config sizes *one shard's* database, not the whole thing.
        heartbeat_interval_us / heartbeat_timeout_us /
        restore_bytes_per_us: per-pair failure-detection and takeover
            parameters, shared by all pairs.
    """

    def __init__(
        self,
        num_shards: int,
        mode: str = "active",
        version: str = "v3",
        config: Optional[EngineConfig] = None,
        heartbeat_interval_us: float = 1_000.0,
        heartbeat_timeout_us: float = 5_000.0,
        restore_bytes_per_us: float = 300.0,
        observer=None,
    ):
        if num_shards < 1:
            raise ConfigurationError("need at least one shard")
        self.num_shards = num_shards
        self.observer = resolve_observer(observer)
        # Heartbeat chains across 2N nodes collide on exact
        # timestamps constantly: the shared-shape (wheel) queue.
        self.sim = Simulator(
            observer=self.observer, queue=default_event_queue(SHAPE_SHARED)
        )
        self.shard_map = ShardMap()
        self.pairs: List[ReplicatedCluster] = []
        #: Per-shard scoped views of the observer ("shard.N.…" names).
        self.shard_observers = [
            self.observer.scoped(f"shard.{shard_id}")
            for shard_id in range(num_shards)
        ]
        node_names: List[str] = []
        for shard_id in range(num_shards):
            primary = f"shard{shard_id}/primary"
            backup = f"shard{shard_id}/backup"
            self.pairs.append(ReplicatedCluster(
                mode=mode,
                version=version,
                config=config,
                heartbeat_interval_us=heartbeat_interval_us,
                heartbeat_timeout_us=heartbeat_timeout_us,
                restore_bytes_per_us=restore_bytes_per_us,
                sim=self.sim,
                primary_name=primary,
                backup_name=backup,
                on_failover=functools.partial(
                    self._pair_failed_over, shard_id
                ),
                observer=self.shard_observers[shard_id],
            ))
            self.shard_map.add_shard(primary, backup)
            node_names.extend((primary, backup))
        #: The resolved per-shard engine config (identical across pairs).
        self.config = self.pairs[0].config
        #: Cluster-wide view of every node; the most senior surviving
        #: node is the (purely administrative) cluster coordinator.
        self.membership = Membership(
            members=node_names, primary=node_names[0], observer=self.observer
        )

    # -- setup --------------------------------------------------------------

    def setup(self, workload: ShardedWorkload) -> None:
        """Initialize every shard's database and ship the initial
        images to the backups."""
        if workload.num_shards != self.num_shards:
            raise ConfigurationError(
                f"workload spans {workload.num_shards} shards, "
                f"cluster has {self.num_shards}"
            )
        for shard_id, pair in enumerate(self.pairs):
            workload.shards[shard_id].setup(pair.system)
            pair.system.sync_initial()

    # -- serving ------------------------------------------------------------

    def serving(self, shard_id: int):
        """The object currently serving shard ``shard_id``."""
        return self._pair(shard_id).serving

    def available(self, shard_id: int) -> bool:
        return self._pair(shard_id).is_available

    def execute(self, shard_id: int, epoch: int, request: Callable) -> object:
        """Run ``request(serving)`` on the shard, with server-side checks.

        Raises :class:`~repro.errors.StaleShardMapError` when the
        caller's routing epoch predates the shard's current view, and
        :class:`~repro.errors.ShardUnavailableError` while the shard is
        mid-failover.
        """
        self.shard_map.check_epoch(shard_id, epoch)
        pair = self._pair(shard_id)
        if not pair.is_available:
            raise ShardUnavailableError(shard_id)
        return request(pair.serving)

    # -- failure ------------------------------------------------------------

    def schedule_primary_crash(self, shard_id: int, at_us: float) -> None:
        """Crash shard ``shard_id``'s primary at simulated ``at_us``."""
        self._pair(shard_id).schedule_primary_crash(at_us)

    def _pair_failed_over(self, shard_id: int, pair: ReplicatedCluster) -> None:
        """One pair's takeover completed: update the global views."""
        self.shard_map.fail_over(shard_id)
        self.membership.fail(pair.primary_node.name)
        report = pair.takeover
        if report is not None:
            restore_at = max(report.service_restored_at_us, self.sim.now)
            self.sim.schedule_at(
                restore_at,
                functools.partial(self._mark_restored, shard_id),
                name=f"shard{shard_id}-restored",
            )

    def _mark_restored(self, shard_id: int) -> None:
        self.shard_map.mark_restored(shard_id)
        shard_observer = self.shard_observers[shard_id]
        if shard_observer.enabled:
            shard_observer.event(
                "cluster", "service.restored",
                epoch=self.shard_map.entry(shard_id).epoch,
            )

    def pop_resume_link(self, shard_id: int):
        """Consume the shard's pending recovery link, if any.

        The router calls this after the first served commit following a
        failover, to causally link its ``recovery.resume`` instant back
        to the recovery span.
        """
        pair = self.pairs[shard_id]
        link, pair.last_recovery_link = pair.last_recovery_link, None
        return link

    # -- progress -----------------------------------------------------------

    def run_until(self, until_us: float) -> None:
        self.sim.run(until=until_us)

    @property
    def takeovers(self) -> Dict[int, TakeoverReport]:
        """Per-shard takeover reports for every shard that failed over."""
        return {
            shard_id: pair.takeover
            for shard_id, pair in enumerate(self.pairs)
            if pair.takeover is not None
        }

    def _pair(self, shard_id: int) -> ReplicatedCluster:
        if shard_id < 0 or shard_id >= self.num_shards:
            raise ConfigurationError(
                f"shard {shard_id} not in cluster of {self.num_shards}"
            )
        return self.pairs[shard_id]

    def __repr__(self) -> str:
        failed = sum(1 for p in self.pairs if p.takeover is not None)
        return (
            f"ShardedCluster({self.num_shards} shards, "
            f"{failed} failed over, map epoch {self.shard_map.epoch})"
        )
