"""Range partitioning of a workload's natural keyspace.

STAR-style partitioned replication (Lu et al.) splits an in-memory
database across nodes along a key that keeps every transaction local
to one partition. The paper's benchmarks have exactly such keys:
Debit-Credit transactions touch one *branch* (plus its tellers and one
of its accounts), Order-Entry transactions one *warehouse*. The
:class:`Partitioner` divides the global key range into contiguous
per-shard sub-ranges so a router can place each transaction with one
integer comparison, and maps between global and shard-local keys.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class KeyRange:
    """One shard's contiguous slice ``[start, stop)`` of the keyspace."""

    shard_id: int
    start: int
    stop: int

    def __contains__(self, key: int) -> bool:
        return self.start <= key < self.stop


class Partitioner:
    """Contiguous range partitioning of an integer keyspace.

    Built from the per-shard key counts (how many branches each
    shard's database holds); shard ``i`` owns the global keys
    ``[sum(counts[:i]), sum(counts[:i+1]))``.
    """

    def __init__(self, counts: Sequence[int]):
        if not counts:
            raise ConfigurationError("partitioner needs at least one shard")
        self.ranges: List[KeyRange] = []
        cursor = 0
        for shard_id, count in enumerate(counts):
            if count < 1:
                raise ConfigurationError(
                    f"shard {shard_id} owns {count} keys; every shard "
                    f"must own at least one"
                )
            self.ranges.append(KeyRange(shard_id, cursor, cursor + count))
            cursor += count
        self.total_keys = cursor
        self._starts = [r.start for r in self.ranges]

    # -- construction helpers ----------------------------------------------

    @classmethod
    def for_debit_credit(cls, shard_workloads: Sequence) -> "Partitioner":
        """Partition by branch: shard ``i`` owns the branches of the
        ``i``-th per-shard :class:`DebitCreditWorkload` layout."""
        return cls([w.branches.records for w in shard_workloads])

    # -- key mapping --------------------------------------------------------

    def shard_of(self, key: int) -> int:
        """The shard owning global ``key``."""
        if key < 0 or key >= self.total_keys:
            raise ConfigurationError(
                f"key {key} outside keyspace [0, {self.total_keys})"
            )
        return bisect_right(self._starts, key) - 1

    def __repr__(self) -> str:
        return (
            f"Partitioner({len(self.ranges)} shards, "
            f"{self.total_keys} keys)"
        )
