"""The client-facing router: key -> shard, with retry and redirect.

A :class:`Router` holds a *snapshot* of the shard map and places each
transaction by its partition key. Two things can go wrong at the
serving side, and the router turns both into forward progress on the
shared simulator instead of an error at the client:

* **Stale view** — the shard failed over after the snapshot was taken;
  the server fences the request
  (:class:`~repro.errors.StaleShardMapError`). The router refreshes
  *that shard's entry* and *redirects* immediately (same simulated
  instant — the entry lookup is a local RPC in a real deployment, and
  its latency is far below the simulator's microsecond event scale).
  The refresh is per-entry on purpose: fetching the whole map would
  couple unrelated shards (one shard's redirect silently refreshing
  another's stale entry). With a single entry refreshed, each shard's
  redirect behaviour depends only on its own epoch history.
* **Shard mid-failover** — the new primary is still restoring
  (:class:`~repro.errors.ShardUnavailableError`). The router *retries*
  with exponential backoff until the shard returns or the attempt
  budget runs out.

All waiting happens as simulator events, so router traffic interleaves
deterministically with heartbeats, crashes and takeovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import (
    RoutingError,
    ShardUnavailableError,
    StaleShardMapError,
)
from repro.obs.observer import NULL_OBSERVER
from repro.obs.recovery import RECOVERY_RESUME
from repro.obs.spans import COMMIT_SPAN
from repro.shard.cluster import RoutedCluster
from repro.shard.workload import ShardedWorkload

#: Retry backoff: the first retry waits BACKOFF_US, each later one
#: BACKOFF_FACTOR times longer, none longer than MAX_BACKOFF_US.
BACKOFF_US = 250.0
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_US = 4_000.0


@dataclass
class RoutedTransaction:
    """One submitted transaction's routing lifecycle."""

    key: int
    shard_id: int
    submitted_at_us: float
    completed_at_us: Optional[float] = None
    attempts: int = 0
    dropped: bool = False


class Router:
    """Routes a workload's transactions at a
    :class:`~repro.shard.cluster.RoutedCluster` of either kind."""

    def __init__(
        self,
        cluster: RoutedCluster,
        workload: ShardedWorkload,
        max_attempts: int = 10,
        observer=NULL_OBSERVER,
    ):
        if workload.num_shards != cluster.num_shards:
            raise RoutingError(
                f"workload spans {workload.num_shards} shards, "
                f"cluster has {cluster.num_shards}"
            )
        if max_attempts < 1:
            raise RoutingError("need at least one attempt")
        self.cluster = cluster
        self.workload = workload
        self.max_attempts = max_attempts

        self.observer = observer
        self.map = cluster.shard_map.snapshot()
        self.routed = 0
        self.completed = 0
        self.retries = 0
        self.redirects = 0
        self.dropped = 0
        self.transactions: List[RoutedTransaction] = []
        #: Completions per shard: what the series probes read instead
        #: of scanning the above.
        self.completed_by_shard: List[int] = [0] * cluster.num_shards

    # -- submission ---------------------------------------------------------

    def submit(self, key: int, at_us: float) -> RoutedTransaction:
        """Submit one transaction on partition ``key`` at simulated
        ``at_us``."""
        shard_id = self.workload.partitioner.shard_of(key)
        record = RoutedTransaction(key=key, shard_id=shard_id,
                                   submitted_at_us=at_us)
        self.routed += 1
        self.transactions.append(record)
        if self.observer.enabled:
            self.observer.count("router.routed")
            self.observer.event_at(
                at_us, "router", "txn.submit", key=key, shard=shard_id
            )
        self.cluster.sim.schedule_at(
            at_us, lambda: self._attempt(record), name="router-submit"
        )
        return record

    # -- the retry/redirect machine -----------------------------------------

    def _attempt(self, record: RoutedTransaction) -> None:
        record.attempts += 1
        entry = self.map.entry(record.shard_id)
        # Snapshot the recorder so the first post-failover completion
        # can find the commit tree this execute call emits (resume link).
        pre_len = (
            len(self.observer.recorder.events)
            if self.observer.enabled else 0
        )
        try:
            self.cluster.execute(
                record.shard_id,
                entry.epoch,
                lambda serving: self.workload.run_on_shard(
                    record.shard_id, serving
                ),
            )
        except StaleShardMapError:
            # Refresh only this shard's entry and redirect at the same
            # instant; the new entry either serves or reports the
            # shard unavailable. Per-entry (not a full snapshot) so
            # one shard's redirect never refreshes another shard's
            # stale entry — the decoupling the per-shard domain
            # decomposition relies on for multi-crash plans.
            self.redirects += 1
            self.map = self.map.with_entry(
                self.cluster.shard_map.entry(record.shard_id)
            )
            if self.observer.enabled:
                self.observer.count("router.redirects")
                self.observer.event(
                    "router", "txn.redirect",
                    shard=record.shard_id, stale_epoch=entry.epoch,
                )
            record.attempts -= 1  # a redirect is not a service attempt
            self._attempt(record)
        except ShardUnavailableError:
            if record.attempts >= self.max_attempts:
                record.dropped = True
                self.dropped += 1
                if self.observer.enabled:
                    self.observer.count("router.dropped")
                    self.observer.event(
                        "router", "txn.drop",
                        shard=record.shard_id, attempts=record.attempts,
                    )
                return
            self.retries += 1
            delay = min(
                BACKOFF_US * BACKOFF_FACTOR ** (record.attempts - 1),
                MAX_BACKOFF_US,
            )
            if self.observer.enabled:
                self.observer.count("router.retries")
                self.observer.event(
                    "router", "txn.retry",
                    shard=record.shard_id, attempt=record.attempts,
                    backoff_us=delay,
                )
            self.cluster.sim.schedule_after(
                delay, lambda: self._attempt(record), name="router-retry"
            )
        else:
            record.completed_at_us = self.cluster.sim.now
            self.completed += 1
            self.completed_by_shard[record.shard_id] += 1
            if self.observer.enabled:
                latency = record.completed_at_us - record.submitted_at_us
                self.observer.count("router.completed")
                self.observer.observe("router.latency_us", latency)
                attrs = {
                    "shard": record.shard_id,
                    "latency_us": latency,
                    "attempts": record.attempts,
                }
                scope = self.cluster.completion_scope(record.shard_id)
                if scope is not None:
                    attrs["scope"] = scope
                self.observer.event("router", "txn.complete", **attrs)
                # First served commit after a failover: emit the
                # recovery.resume instant, causally linked to the
                # recovery span and to this commit's span tree.
                link = self.cluster.pop_resume_link(record.shard_id)
                if link is not None:
                    resume_attrs = {
                        "trace_id": link.trace_id,
                        "parent_id": link.span_id,
                        "shard": record.shard_id,
                    }
                    for event in reversed(
                        self.observer.recorder.events[pre_len:]
                    ):
                        if event.name == COMMIT_SPAN:
                            resume_attrs["commit_trace_id"] = (
                                event.attrs["trace_id"]
                            )
                            break
                    self.observer.event(
                        "router", RECOVERY_RESUME, **resume_attrs
                    )

    # -- reporting ----------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return self.routed - self.completed - self.dropped

    def __repr__(self) -> str:
        return (
            f"Router(routed={self.routed}, completed={self.completed}, "
            f"retries={self.retries}, redirects={self.redirects}, "
            f"dropped={self.dropped})"
        )
