"""Quorum groups behind the shard-routing surface.

A :class:`QuorumCluster` is the leaderless counterpart of
:class:`~repro.shard.cluster.ShardedCluster`: ``num_groups``
:class:`~repro.quorum.group.QuorumGroup`\\ s as the units of one
:class:`~repro.shard.cluster.RoutedCluster`, so the simulator, the
:class:`~repro.shard.shardmap.ShardMap` and the ``execute`` contract —
epoch fencing first, then availability — are the very ones the
:class:`~repro.shard.router.Router` drives for pairs. Leaderless groups
never change primaries, so map epochs simply never bump; a group that
loses quorum reports :class:`~repro.errors.ShardUnavailableError` and
the router backs off exactly as it does for a mid-failover pair.

Faults go through the base class's verbs — ``crash``, ``recover`` and
``partition`` on :class:`~repro.shard.cluster.RoutedCluster` — which
have the group check the members when the fault is scheduled and apply
it when it fires.

Scopes: group ``g``'s events carry the ``group.g`` component prefix,
and the router stamps completions with the same scope, which is what
the SLO per-scope accounting keys on.
"""

from __future__ import annotations

from typing import Dict, List

from repro.quorum.group import QuorumGroup
from repro.shard.cluster import RoutedCluster


class QuorumCluster(RoutedCluster):
    """``num_groups`` leaderless N-replica groups behind one router.

    Args:
        num_groups: how many quorum groups to run.
        replicas_per_group / read_quorum / write_quorum: the (N, R, W)
            tuple shared by every group.
        keys_per_group: each group's local keyspace size.
        sloppy / link_rtt_us / byte_us / repair_interval_us /
        leaf_span: forwarded to every group (see
            :class:`~repro.quorum.group.QuorumGroup`).
    """

    scope_prefix = "group"

    def __init__(
        self,
        num_groups: int,
        replicas_per_group: int = 3,
        read_quorum: int = 1,
        write_quorum: int = 3,
        keys_per_group: int = 64,
        sloppy: bool = False,
        link_rtt_us: float = 200.0,
        byte_us: float = 0.01,
        repair_interval_us: float = 0.0,
        leaf_span: int = 8,
        observer=None,
    ):
        super().__init__(num_groups, observer)
        self.groups: List[QuorumGroup] = self.units
        for group_id in range(num_groups):
            # Leaderless groups have no primary/backup; the map entry
            # names the first two ring members and its epoch never bumps.
            self._add_unit(
                QuorumGroup(
                    group_id=group_id,
                    num_replicas=replicas_per_group,
                    read_quorum=read_quorum,
                    write_quorum=write_quorum,
                    num_keys=keys_per_group,
                    sim=self.sim,
                    sloppy=sloppy,
                    link_rtt_us=link_rtt_us,
                    byte_us=byte_us,
                    repair_interval_us=repair_interval_us,
                    leaf_span=leaf_span,
                    observer=self.unit_observers[group_id],
                ),
                f"group{group_id}/r0", f"group{group_id}/r1",
            )

    # -- repair and reporting ------------------------------------------------

    def repair_pass_all(self) -> int:
        """One explicit anti-entropy sweep over every group."""
        return sum(group.repair_pass() for group in self.groups)

    @property
    def stats(self) -> Dict[int, Dict[str, float]]:
        return {
            group_id: group.stats.to_dict()
            for group_id, group in enumerate(self.groups)
        }

    def __repr__(self) -> str:
        down = sum(1 for group in self.groups if not group.is_available)
        return (
            f"QuorumCluster({self.num_shards} groups, "
            f"{down} below quorum)"
        )
