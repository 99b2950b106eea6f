"""A paper benchmark split across N shard-local databases.

Each shard runs an ordinary :class:`~repro.workloads.base.Workload`
instance over its own (smaller) database — the layouts, shadow models
and verification all come along for free. What this module adds is the
mapping from a routed global partition key (a Debit-Credit branch) to
one transaction on the owning shard's workload; the client picks the
keys.

Transactions never span shards: Debit-Credit pins each transaction to
one branch, which is exactly why it partitions cleanly (the STAR
observation).
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigurationError
from repro.shard.partitioner import Partitioner
from repro.workloads.base import TransactionTarget, Workload
from repro.workloads.debit_credit import DebitCreditWorkload

#: Seeds of per-shard workload streams are spread apart so shard i and
#: shard j never replay each other's transaction sequences.
_SHARD_SEED_STRIDE = 7919


class ShardedWorkload:
    """N per-shard workload instances behind one partitioner.

    Args:
        name: ``"debit-credit"``, the one workload a run shards.
        num_shards: how many primary-backup pairs the database spans.
        db_bytes_per_shard: each shard's database size.
        seed: seeds (offset per shard) every shard-local transaction
            stream, so a whole sharded run is reproducible from one
            integer.
    """

    WORKLOADS = {
        "debit-credit": DebitCreditWorkload,
    }

    def __init__(
        self,
        name: str,
        num_shards: int,
        db_bytes_per_shard: int,
        seed: int = 0,
    ):
        if name not in self.WORKLOADS:
            raise ConfigurationError(
                f"unknown sharded workload {name!r}; "
                f"choose from {sorted(self.WORKLOADS)}"
            )
        if num_shards < 1:
            raise ConfigurationError("need at least one shard")
        self.name = name
        self.num_shards = num_shards
        self.seed = seed
        cls = self.WORKLOADS[name]
        self.shards: List[Workload] = [
            cls(db_bytes_per_shard, seed=seed + 1 + _SHARD_SEED_STRIDE * i)
            for i in range(num_shards)
        ]
        self.partitioner = Partitioner.for_debit_credit(self.shards)

    # -- client side --------------------------------------------------------

    def run_on_shard(self, shard_id: int, target: TransactionTarget) -> None:
        """Execute one transaction of shard ``shard_id``'s stream on
        ``target`` (the shard's serving engine or system)."""
        self.shards[shard_id].run_transaction(target)

    # -- whole-cluster helpers ---------------------------------------------

    @property
    def transactions_run(self) -> int:
        return sum(w.transactions_run for w in self.shards)

    def verify_shard(self, shard_id: int, target: TransactionTarget) -> None:
        self.shards[shard_id].verify(target)

    def __repr__(self) -> str:
        return (
            f"ShardedWorkload({self.name!r}, {self.num_shards} shards, "
            f"{self.partitioner.total_keys} keys)"
        )
