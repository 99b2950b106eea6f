"""The versioned shard map: who serves each shard, and since when.

Clients route against a *snapshot* of this map. Each shard entry
carries an epoch that the serving side bumps whenever the shard's
primary changes; a request built from an older snapshot is rejected
with :class:`~repro.errors.StaleShardMapError` rather than silently
served by the wrong node — the standard fencing trick that lets
routers cache the map without a coherence protocol (cf. the view
numbers of fault-tolerant partial replication, Sutra & Shapiro).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.errors import ConfigurationError, StaleShardMapError

STATUS_UP = "up"
STATUS_FAILING_OVER = "failing-over"
STATUS_DEGRADED = "degraded"  # serving again, but with no backup left


@dataclass(frozen=True)
class ShardInfo:
    """One shard's routing entry."""

    shard_id: int
    primary: str
    backup: str
    epoch: int = 0
    status: str = STATUS_UP


class ShardMap:
    """The authoritative mapping of shards to primary/backup pairs."""

    def __init__(self) -> None:
        self.entries: List[ShardInfo] = []
        self.epoch = 0  # bumped on every entry change, for cheap staleness probes

    def add_shard(self, primary: str, backup: str) -> ShardInfo:
        entry = ShardInfo(len(self.entries), primary, backup)
        self.entries.append(entry)
        return entry

    def entry(self, shard_id: int) -> ShardInfo:
        if shard_id < 0 or shard_id >= len(self.entries):
            raise ConfigurationError(
                f"shard {shard_id} not in map of {len(self.entries)}"
            )
        return self.entries[shard_id]

    # -- view changes -------------------------------------------------------

    def fail_over(self, shard_id: int) -> ShardInfo:
        """The shard's backup takes over: new primary, bumped epoch.

        Requests routed with the old epoch are fenced off from this
        point on.
        """
        old = self.entry(shard_id)
        updated = ShardInfo(
            shard_id=shard_id,
            primary=old.backup,
            backup="",
            epoch=old.epoch + 1,
            status=STATUS_FAILING_OVER,
        )
        self.entries[shard_id] = updated
        self.epoch += 1
        return updated

    def mark_restored(self, shard_id: int) -> ShardInfo:
        """Takeover work finished: the shard serves again (degraded —
        the pair has no backup until a replacement joins). Routing did
        not change, so the epoch stays put."""
        old = self.entry(shard_id)
        self.entries[shard_id] = replace(old, status=STATUS_DEGRADED)
        return self.entries[shard_id]

    # -- client side --------------------------------------------------------

    def snapshot(self) -> "ShardMapSnapshot":
        """A frozen copy for a router to route against."""
        return ShardMapSnapshot(tuple(self.entries), self.epoch)

    def check_epoch(self, shard_id: int, seen_epoch: int) -> None:
        """Fence a request that was routed with a stale entry."""
        current = self.entry(shard_id).epoch
        if seen_epoch != current:
            raise StaleShardMapError(shard_id, seen_epoch, current)

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{e.shard_id}:{e.primary}@{e.epoch}" for e in self.entries
        )
        return f"ShardMap(epoch={self.epoch}, [{entries}])"


@dataclass(frozen=True)
class ShardMapSnapshot:
    """What a router holds: immutable entries plus the map epoch they
    were taken at."""

    entries: tuple
    epoch: int

    def entry(self, shard_id: int) -> ShardInfo:
        if shard_id < 0 or shard_id >= len(self.entries):
            raise ConfigurationError(
                f"shard {shard_id} not in snapshot of {len(self.entries)}"
            )
        return self.entries[shard_id]

    def with_entry(self, entry: ShardInfo) -> "ShardMapSnapshot":
        """A new snapshot with one entry replaced — the per-entry
        refresh a router performs on a redirect.

        Only the stale shard's entry is updated; every other entry
        (and the snapshot-level ``epoch``, which is bookkeeping for
        ``__repr__``/diagnostics, never consulted for routing) keeps
        whatever the router last saw. That keeps each shard's routing
        state a function of *that shard's* view-change history alone:
        shard A failing over cannot silently refresh the router's
        entry for shard B.
        """
        if entry.shard_id < 0 or entry.shard_id >= len(self.entries):
            raise ConfigurationError(
                f"shard {entry.shard_id} not in snapshot of "
                f"{len(self.entries)}"
            )
        entries = (
            self.entries[: entry.shard_id]
            + (entry,)
            + self.entries[entry.shard_id + 1:]
        )
        return ShardMapSnapshot(entries, self.epoch)
