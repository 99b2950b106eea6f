"""Replicated units behind one shard map, and the pair-based kind.

A :class:`RoutedCluster` is what the :class:`~repro.shard.router.Router`
drives: ``num_shards`` replicated *units* on one shared
:class:`~repro.sim.engine.Simulator`, fronted by the authoritative
:class:`~repro.shard.shardmap.ShardMap` whose per-shard epochs fence
requests routed with a stale view. A unit answers three names —
``is_available``, ``serving`` and ``last_recovery_link`` — and the base
class owns everything written against them; a subclass builds its units
and schedules its faults.

:class:`ShardedCluster` is the primary-backup kind: every unit is a
:class:`~repro.cluster.cluster.ReplicatedCluster` pair with its own
heartbeat monitor, membership view and takeover path, so one shard's
primary crash triggers exactly one failover while the other shards
keep serving — the availability composition that turns the paper's
two-node story into a scale-out system.
:class:`~repro.quorum.cluster.QuorumCluster` is the leaderless kind.
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


class RoutedCluster:
    """``num_units`` replicated units serving one logical database.

    Construction order — simulator, scoped observers, then (in the
    subclass) each unit followed by its :meth:`_add_unit` — fixes the
    observer ids and the simulator's push stream, hence every trace byte.
    """

    #: Dotted prefix of the per-unit observer scopes (``shard.N``).
    scope_prefix = "shard"

    def __init__(self, num_units: int, observer=None):
        if num_units < 1:
            raise ConfigurationError(f"need at least one {self.scope_prefix}")
        self.num_shards = num_units
        self.observer = resolve_observer(observer)
        # Heartbeat chains across 2N nodes, quorum acks and repair rounds
        # collide on exact timestamps constantly: the wheel queue.
        self.sim = Simulator(
            observer=self.observer, queue=default_event_queue(SHAPE_SHARED)
        )
        self.shard_map = ShardMap()
        #: Per-unit scoped views of the observer ("shard.N.…" names).
        self.unit_observers = [
            self.observer.scoped(f"{self.scope_prefix}.{unit_id}")
            for unit_id in range(num_units)
        ]
        self.units: list = []

    def _add_unit(self, unit, primary: str, backup: str) -> None:
        self.units.append(unit)
        self.shard_map.add_shard(primary, backup)

    def setup(self, workload) -> None:
        """Validate the workload's shape against the cluster's."""
        if workload.num_shards != self.num_shards:
            raise ConfigurationError(
                f"workload spans {workload.num_shards} "
                f"{self.scope_prefix}s, cluster has {self.num_shards}"
            )

    # -- serving ------------------------------------------------------------

    def serving(self, shard_id: int):
        """The object currently serving unit ``shard_id``."""
        return self._unit(shard_id).serving

    def available(self, shard_id: int) -> bool:
        return self._unit(shard_id).is_available

    def execute(self, shard_id: int, epoch: int, request: Callable) -> object:
        """Run ``request(serving)`` on the unit, with the checks a real
        shard server performs — epoch fencing first, then availability.

        Raises :class:`~repro.errors.StaleShardMapError` when the
        caller's routing epoch predates the unit's current view, and
        :class:`~repro.errors.ShardUnavailableError` while the unit is
        mid-failover or below quorum.
        """
        self.shard_map.check_epoch(shard_id, epoch)
        unit = self._unit(shard_id)
        if not unit.is_available:
            raise ShardUnavailableError(shard_id)
        return request(unit.serving)

    def pop_resume_link(self, shard_id: int):
        """Consume the unit's pending recovery link, if any: the
        router's first served commit after an outage links its
        ``recovery.resume`` instant back to the recovery span with it."""
        unit = self._unit(shard_id)
        link, unit.last_recovery_link = unit.last_recovery_link, None
        return link

    def completion_scope(self, shard_id: int) -> Optional[str]:
        """The ``scope`` the router stamps on a ``txn.complete``, if any.

        Trace readers derive ``shard.N`` from the ``shard`` attr every
        completion carries, so a shard cluster stamps nothing and its
        traces stay byte-identical; any other prefix is spelled out —
        it is what the SLO per-scope accounting keys on.
        """
        if self.scope_prefix == "shard":
            return None
        return f"{self.scope_prefix}.{shard_id}"

    # -- progress -----------------------------------------------------------

    def run_until(self, until_us: float) -> None:
        self.sim.run(until=until_us)

    def _unit(self, shard_id: int):
        if shard_id < 0 or shard_id >= self.num_shards:
            raise ConfigurationError(
                f"{self.scope_prefix} {shard_id} not in cluster of "
                f"{self.num_shards}"
            )
        return self.units[shard_id]


class ShardedCluster(RoutedCluster):
    """``num_shards`` primary-backup pairs serving one logical database.

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
        super().__init__(num_shards, observer)
        self.pairs: List[ReplicatedCluster] = self.units
        node_names: List[str] = []
        for shard_id in range(num_shards):
            primary = f"shard{shard_id}/primary"
            backup = f"shard{shard_id}/backup"
            self._add_unit(ReplicatedCluster(
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
                observer=self.unit_observers[shard_id],
            ), primary, backup)
            node_names.extend((primary, backup))
        #: The resolved per-shard engine config (identical across pairs).
        self.config = self.pairs[0].config
        #: Cluster-wide view of all ``2 * num_shards`` nodes; the most
        #: senior survivor is the (purely administrative) coordinator.
        self.membership = Membership(
            members=node_names, primary=node_names[0], observer=self.observer
        )

    def setup(self, workload: ShardedWorkload) -> None:
        """Initialize every shard's database and ship the initial
        images to the backups."""
        super().setup(workload)
        for shard_id, pair in enumerate(self.pairs):
            workload.shards[shard_id].setup(pair.system)
            pair.system.sync_initial()

    # -- failure ------------------------------------------------------------

    def schedule_primary_crash(self, shard_id: int, at_us: float) -> None:
        """Crash shard ``shard_id``'s primary at simulated ``at_us``."""
        self._unit(shard_id).schedule_primary_crash(at_us)

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
        shard_observer = self.unit_observers[shard_id]
        if shard_observer.enabled:
            shard_observer.event(
                "cluster", "service.restored",
                epoch=self.shard_map.entry(shard_id).epoch,
            )

    @property
    def takeovers(self) -> Dict[int, TakeoverReport]:
        """Per-shard takeover reports for every shard that failed over."""
        return {
            shard_id: pair.takeover
            for shard_id, pair in enumerate(self.pairs)
            if pair.takeover is not None
        }

    def __repr__(self) -> str:
        failed = sum(1 for p in self.pairs if p.takeover is not None)
        return (
            f"ShardedCluster({self.num_shards} shards, "
            f"{failed} failed over, map epoch {self.shard_map.epoch})"
        )
