"""Sharding: N primary-backup pairs serving one logical database.

The paper stops at a single replicated pair. This package adds the
layer that makes the design scale out, following the shape of
partitioned replicated in-memory databases (STAR, Lu et al.;
fault-tolerant partial replication, Sutra & Shapiro):

* :mod:`repro.shard.partitioner` — contiguous range partitioning of a
  workload's natural key (Debit-Credit branches);
* :mod:`repro.shard.shardmap` — the versioned shard map whose
  per-shard epochs fence requests routed with a stale view;
* :mod:`repro.shard.workload` — a paper benchmark split across N
  shard-local databases plus the client-side key stream;
* :mod:`repro.shard.cluster` — N
  :class:`~repro.cluster.cluster.ReplicatedCluster` pairs on one
  shared simulator, each with independent detection and takeover, and
  the ``crash`` / ``recover`` / ``partition`` verbs that schedule every
  fault;
* :mod:`repro.shard.router` — the client router: key -> shard, with
  epoch-refresh redirects and exponential-backoff retries while a
  shard fails over.
"""

from repro.shard.cluster import ShardedCluster
from repro.shard.partitioner import KeyRange, Partitioner
from repro.shard.router import RoutedTransaction, Router
from repro.shard.shardmap import (
    STATUS_DEGRADED,
    STATUS_FAILING_OVER,
    STATUS_UP,
    ShardInfo,
    ShardMap,
    ShardMapSnapshot,
)
from repro.shard.workload import ShardedWorkload

__all__ = [
    "KeyRange",
    "Partitioner",
    "RoutedTransaction",
    "Router",
    "STATUS_DEGRADED",
    "STATUS_FAILING_OVER",
    "STATUS_UP",
    "ShardInfo",
    "ShardMap",
    "ShardMapSnapshot",
    "ShardedCluster",
    "ShardedWorkload",
]
