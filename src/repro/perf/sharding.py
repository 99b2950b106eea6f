"""Aggregate throughput of N replicated pairs sharing (or not) a SAN.

Two deployments bracket what a sharded cluster can deliver:

* **dedicated links** — each pair owns its Memory Channel segment, so
  pairs never contend and aggregate throughput is ``n x`` the single
  pair's rate: the near-linear scaling disjoint shards promise.
* **one shared SAN** — every pair's replication stream crosses the
  same link (the cheapest wiring). The link is a serial resource; the
  cap follows from the per-transaction packet mix exactly as in the
  SMP experiments, computed here by attaching each pair's per-
  transaction :class:`~repro.san.packets.PacketTrace` to a
  :class:`~repro.san.link.SharedLink`.

Both numbers come from the same calibrated single-pair
:class:`~repro.perf.throughput.ThroughputReport` the two-node
experiments already produce.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.specs import MEMORY_CHANNEL_II
from repro.perf.throughput import ThroughputReport
from repro.san.link import SharedLink
from repro.san.packets import PacketTrace

US_PER_SECOND = 1e6


@dataclass
class ShardedThroughputReport:
    """Aggregate throughput of ``shards`` identical pairs."""

    shards: int
    per_pair_tps: float
    link_us_per_txn: float
    dedicated_tps: float
    shared_san_tps: float
    shared_san_utilization: float

    @property
    def dedicated_speedup(self) -> float:
        return self.dedicated_tps / self.per_pair_tps


def sharded_aggregate(
    single: ThroughputReport,
    shards: int,
    per_txn_trace: PacketTrace,
) -> ShardedThroughputReport:
    """Compose one pair's report into an N-pair aggregate.

    Args:
        single: the calibrated single-pair throughput report.
        shards: number of identical pairs.
        per_txn_trace: the pair's measured per-transaction packet
            trace; the shared-SAN cap is computed from its actual
            packet-size mix on a Memory Channel II :class:`SharedLink`
            (4-byte packets cost far more than their bytes suggest).
    """
    if shards < 1:
        raise ConfigurationError("need at least one shard")
    dedicated = shards * single.tps
    link = SharedLink(MEMORY_CHANNEL_II)
    for _ in range(shards):
        link.attach(per_txn_trace)
    # One transaction from each pair must drain through the link.
    link_us = link.total_link_time_us() / shards

    capacity_tps = US_PER_SECOND / link_us
    shared = min(dedicated, capacity_tps)
    utilization = min(1.0, dedicated * link_us / US_PER_SECOND)
    return ShardedThroughputReport(
        shards=shards,
        per_pair_tps=single.tps,
        link_us_per_txn=link_us,
        dedicated_tps=dedicated,
        shared_san_tps=shared,
        shared_san_utilization=utilization,
    )
