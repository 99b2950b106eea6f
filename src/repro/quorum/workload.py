"""A key-value read-modify-write workload for quorum groups.

The primary-backup architectures replay the paper's benchmarks through
a transaction engine; a leaderless group's native unit is the keyed
read-modify-write, so this module provides the quorum analogue of
:class:`~repro.shard.workload.ShardedWorkload` with the same client
surface the :class:`~repro.shard.router.Router` drives — ``num_shards``,
a ``partitioner`` with ``shard_of``, and ``run_on_shard`` — which is
what lets one router implementation serve all three architectures.

Like the sharded benchmarks, the routed global key picks only the
*group*; the transaction itself comes from a per-group deterministic
stream (seeded apart per group), so a whole run is reproducible from
one integer regardless of how retries interleave. Each transaction
quorum-reads a group-local key, derives the next value from the
last-writer-wins winner (a per-key monotone counter, so lost updates
are detectable), and quorum-writes it back. The workload keeps a
client-side shadow of every counter it successfully wrote; tests
compare quorum reads against it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError

#: Per-group stream seeds are spread apart, mirroring the sharded
#: workload's convention, so group i never replays group j's keys.
_GROUP_SEED_STRIDE = 6101

#: Payload padding per written value (sizes the replication traffic the
#: cost model accounts).
VALUE_BYTES = 64


class KeyPartitioner:
    """Round-robin global key -> group mapping.

    Global key ``k`` lives on group ``k % num_groups`` — the same
    modulo convention the shard partitioners use for branches.
    """

    def __init__(self, num_groups: int, total_keys: int):
        if num_groups < 1:
            raise ConfigurationError("need at least one group")
        if total_keys < num_groups:
            raise ConfigurationError(
                f"need at least one key per group "
                f"({total_keys} keys, {num_groups} groups)"
            )
        self.num_groups = num_groups
        self.total_keys = total_keys

    def shard_of(self, key: int) -> int:
        return key % self.num_groups


class QuorumWorkload:
    """The client side of a quorum-group key-value benchmark.

    Args:
        num_groups: how many quorum groups the keyspace spans.
        keys_per_group: size of each group's local keyspace.
        seed: drives every group's stream.

    Every written value is padded to :data:`VALUE_BYTES`.
    """

    def __init__(self, num_groups: int, keys_per_group: int, seed: int = 0):
        if keys_per_group < 1:
            raise ConfigurationError("need at least one key per group")
        self.num_shards = num_groups
        self.keys_per_group = keys_per_group
        self.seed = seed
        self.partitioner = KeyPartitioner(
            num_groups, num_groups * keys_per_group
        )
        self._group_rngs: List[random.Random] = [
            random.Random(seed + 1 + _GROUP_SEED_STRIDE * group_id)
            for group_id in range(num_groups)
        ]
        #: (group, local key) -> last counter this client acked.
        self.acked: Dict[Tuple[int, int], int] = {}
        self.transactions_run = 0

    # -- client side --------------------------------------------------------

    def encode_value(self, group_id: int, key: int, counter: int) -> bytes:
        body = f"g{group_id}k{key}:c{counter}:".encode("ascii")
        return body + b"x" * max(0, VALUE_BYTES - len(body))

    @staticmethod
    def decode_counter(value: bytes) -> int:
        """The monotone counter carried in an encoded value."""
        parts = value.split(b":", 2)
        if len(parts) >= 2 and parts[1][:1] == b"c":
            return int(parts[1][1:])
        return 0

    def run_on_shard(self, group_id: int, group) -> None:
        """One read-modify-write transaction against ``group``.

        The group's availability errors propagate to the router, which
        retries; only an acked write advances the client shadow.
        """
        key = self._group_rngs[group_id].randrange(self.keys_per_group)
        merged = group.read(key)
        seen = (
            self.decode_counter(merged.winner.value)
            if merged is not None else 0
        )
        counter = max(seen, self.acked.get((group_id, key), 0)) + 1
        group.write(key, self.encode_value(group_id, key, counter))
        self.acked[(group_id, key)] = counter
        self.transactions_run += 1

    def __repr__(self) -> str:
        return (
            f"QuorumWorkload({self.num_shards} groups x "
            f"{self.keys_per_group} keys, {self.transactions_run} txns)"
        )
