"""One leaderless N-replica quorum group.

A :class:`QuorumGroup` is the third replication architecture next to
the paper's passive and active backup pairs: N equal replicas of one
key range, no primary, and per-operation quorums — a write coordinator
stamps a version vector and needs W acknowledgements, a read
coordinator merges R responses (read-dominant defaults per Kumar &
Agarwal's quorum-consensus protocol). With R+W > N every read quorum
intersects every write quorum, so a strict read always observes the
latest acknowledged write; concurrent writes through different
coordinators surface as *siblings* resolved last-writer-wins.

Two availability modes:

* **strict** — an operation needs its full quorum among replicas the
  coordinator can reach; the group is down while no coordinator can
  assemble ``max(R, W)`` members. This is the mode whose reads carry
  the intersection guarantee the property suite pins down.
* **sloppy** — any live coordinator serves: copies destined to
  unreachable members are parked as *hints* on the next reachable
  member around the ring and count toward W; hinted handoff delivers
  them when the member returns. Availability approaches one crashed
  replica short of total loss, at the price of sibling reads.

Divergence left behind by crashes and partitions is repaired by a
background anti-entropy loop that compares replicas with the Merkle
machinery of :mod:`repro.quorum.merkle` (whose leaf comparator is the
fast diff kernel) and exchanges only the differing keys.

Trace vocabulary: ``quorum.read`` / ``quorum.write`` instants with the
quorum arithmetic in the attrs (the auditor's quorum-intersection and
vv-monotone rules re-check them offline), ``quorum.repair`` spans per
anti-entropy exchange, ``quorum.member.crash`` / ``.recover`` /
``quorum.handoff`` instants for membership churn — and, so the
existing timeline/SLO/audit pipeline works unchanged, a ``fault.crash``
instant when the *group* loses quorum plus a ``takeover`` span when it
regains it, from the same ``<scope>.cluster`` component the
primary-backup pairs use.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, ShardUnavailableError
from repro.obs.observer import resolve_observer
from repro.obs.recovery import (
    PHASE_DETECT,
    PHASE_VIEW,
    RecoverySpanRecorder,
)
from repro.obs.spans import (
    PHASE_QUORUM_WAIT,
    PHASE_TRANSFER,
    CommitSpanRecorder,
)
from repro.quorum.merkle import DEFAULT_LEAF_SPAN, anti_entropy_sync
from repro.quorum.store import Record, ReplicaStore, Stored
from repro.quorum.versions import VersionVector
from repro.sim.engine import Simulator

MODE_STRICT = "strict"
MODE_SLOPPY = "sloppy"

#: Per-digest CPU cost charged to the anti-entropy repair model.
DIGEST_COMPARE_US = 0.05


class QuorumGroupStats:
    """Always-on protocol counters (events are observer-gated)."""

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.read_repairs = 0
        self.sibling_reads = 0
        self.hinted_writes = 0
        self.hints_delivered = 0
        self.handoff_bytes = 0
        self.repair_rounds = 0
        self.repair_keys = 0
        self.repair_bytes = 0
        self.repair_digests = 0
        self.repair_model_us = 0.0
        self.quorum_losses = 0
        self.downtime_us = 0.0

    def to_dict(self) -> Dict[str, float]:
        return dict(vars(self))


class QuorumGroup:
    """N replicas of one key range with R/W quorum operations.

    Args:
        group_id: index of this group in its cluster (names the scope).
        num_replicas / read_quorum / write_quorum: the (N, R, W) tuple;
            strict groups should pick R + W > N for read-latest.
        num_keys: size of the group's keyspace.
        sim: the shared simulator (clock + event scheduling).
        sloppy: relax quorums with hinted handoff (see module docs).
        link_rtt_us: base coordinator->replica round trip; actual pairs
            spread deterministically up to ``rtt_spread`` above it.
        byte_us: modeled wire/storage cost per payload byte.
        repair_interval_us: anti-entropy period; 0 disables the loop.
        leaf_span: keys per Merkle leaf for the repair comparator.
        observer: obs hook, usually already scoped to ``group.<id>``.
    """

    def __init__(
        self,
        group_id: int,
        num_replicas: int,
        read_quorum: int,
        write_quorum: int,
        num_keys: int,
        sim: Simulator,
        sloppy: bool = False,
        link_rtt_us: float = 200.0,
        rtt_spread: float = 0.5,
        byte_us: float = 0.01,
        repair_interval_us: float = 0.0,
        leaf_span: int = DEFAULT_LEAF_SPAN,
        observer=None,
    ):
        if num_replicas < 1:
            raise ConfigurationError("need at least one replica")
        if not 1 <= read_quorum <= num_replicas:
            raise ConfigurationError(
                f"read quorum {read_quorum} outside [1, {num_replicas}]"
            )
        if not 1 <= write_quorum <= num_replicas:
            raise ConfigurationError(
                f"write quorum {write_quorum} outside [1, {num_replicas}]"
            )
        self.group_id = group_id
        self.num_replicas = num_replicas
        self.read_quorum = read_quorum
        self.write_quorum = write_quorum
        self.num_keys = num_keys
        self.sim = sim
        self.sloppy = sloppy
        self.link_rtt_us = link_rtt_us
        self.rtt_spread = rtt_spread
        self.byte_us = byte_us
        self.repair_interval_us = repair_interval_us
        self.leaf_span = leaf_span
        self.observer = resolve_observer(observer)
        self.observer.bind_clock(lambda: self.sim.now)

        self.replicas: List[ReplicaStore] = [
            ReplicaStore(num_keys) for _ in range(num_replicas)
        ]
        self._alive: List[bool] = [True] * num_replicas
        #: Directed (src, dst) pairs the current partition blocks.
        self._blocked: Set[Tuple[int, int]] = set()
        #: holder -> target -> key -> hinted sibling set.
        self._hints: Dict[int, Dict[int, Dict[int, Stored]]] = {}
        self._down_since_us: Optional[float] = None
        self._handoff_bytes_since_down = 0
        #: Causal handle of the last quorum-regain recovery span, for
        #: the router's first post-outage completion (resume link).
        self.last_recovery_link = None
        self.stats = QuorumGroupStats()
        self.read_latencies: List[float] = []
        self.write_latencies: List[float] = []
        self._spans = CommitSpanRecorder(self.observer, "quorum")
        if repair_interval_us > 0:
            self.sim.schedule_after(
                repair_interval_us, self._repair_round,
                name=f"group{group_id}-repair",
            )

    # -- topology ------------------------------------------------------------

    @property
    def mode(self) -> str:
        return MODE_SLOPPY if self.sloppy else MODE_STRICT

    def alive(self, member: int) -> bool:
        return self._alive[member]

    def _connected(self, src: int, dst: int) -> bool:
        if not (self._alive[src] and self._alive[dst]):
            return False
        if src == dst:
            return True
        return (src, dst) not in self._blocked

    def _reach(self, coordinator: int) -> int:
        return sum(
            1
            for member in range(self.num_replicas)
            if self._connected(coordinator, member)
        )

    def _rtt_us(self, src: int, dst: int) -> float:
        """Deterministic per-pair round trip (0 for the local replica)."""
        if src == dst:
            return 0.0
        jitter = ((src * 31 + dst * 17) % 7) / 7.0
        return self.link_rtt_us * (1.0 + self.rtt_spread * jitter)

    @property
    def serving(self) -> "QuorumGroup":
        """What serves this unit's requests: the group itself (any
        live replica coordinates; there is no promoted node)."""
        return self

    @property
    def is_available(self) -> bool:
        """Whether a read-modify-write transaction can currently run."""
        if self.sloppy:
            return any(self._alive)
        needed = max(self.read_quorum, self.write_quorum)
        return any(
            self._alive[c] and self._reach(c) >= needed
            for c in range(self.num_replicas)
        )

    def _coordinator(self, key: int, needed: int) -> int:
        """First suitable coordinator on the preference ring for ``key``."""
        preferred = key % self.num_replicas
        for step in range(self.num_replicas):
            candidate = (preferred + step) % self.num_replicas
            if not self._alive[candidate]:
                continue
            if self.sloppy or self._reach(candidate) >= needed:
                return candidate
        raise ShardUnavailableError(self.group_id)

    # -- quorum operations ---------------------------------------------------

    def write(self, key: int, value: bytes) -> Record:
        """Quorum write: stamp, replicate, wait for W acknowledgements."""
        coordinator = self._coordinator(key, self.write_quorum)
        local = self.replicas[coordinator].get(key)
        base = local.vv if local is not None else VersionVector()
        vv = base.bump(coordinator)
        record = Record(
            value=value, vv=vv, ts_us=self.sim.now, writer=coordinator
        )
        stored = Stored((record,))
        payload = record.payload_bytes

        connected = [
            member
            for member in range(self.num_replicas)
            if self._connected(coordinator, member)
        ]
        if not self.sloppy and len(connected) < self.write_quorum:
            raise ShardUnavailableError(self.group_id)

        ack_times: List[float] = []
        remote_copies = 0
        hinted = 0
        for member in connected:
            self.replicas[member].apply(key, record)
            ack_times.append(
                self._rtt_us(coordinator, member) + payload * self.byte_us
            )
            if member != coordinator:
                remote_copies += 1
        if self.sloppy:
            for member in range(self.num_replicas):
                if member in connected:
                    continue
                holder = self._hint_holder(coordinator, member)
                self._park_hint(holder, member, key, stored)
                hinted += 1
                ack_times.append(
                    self._rtt_us(coordinator, holder) + payload * self.byte_us
                )
                if holder != coordinator:
                    remote_copies += 1

        acks = len(ack_times)
        required = self.write_quorum
        if acks < required:
            raise ShardUnavailableError(self.group_id)
        quorum_wait_us = sorted(ack_times)[required - 1]
        transfer_us = remote_copies * payload * self.byte_us

        self.stats.writes += 1
        self.stats.hinted_writes += hinted
        self.write_latencies.append(quorum_wait_us)
        if self.observer.enabled:
            self.observer.count("quorum.writes")
            self.observer.observe("quorum.write_us", quorum_wait_us)
            self.observer.event(
                "quorum", "quorum.write",
                key=key, coordinator=coordinator,
                n=self.num_replicas, r=self.read_quorum, w=self.write_quorum,
                mode=self.mode, acks=acks, required=required,
                hinted=hinted, vv=vv.encode(), latency_us=quorum_wait_us,
            )
            self._spans.phase(PHASE_QUORUM_WAIT, quorum_wait_us)
            self._spans.phase(PHASE_TRANSFER, transfer_us)
            self._spans.finish(op="write", key=key, coordinator=coordinator)
        return record

    def read(self, key: int) -> Optional[Stored]:
        """Quorum read: merge R responses, repair stale members."""
        coordinator = self._coordinator(key, self.read_quorum)
        connected = sorted(
            (
                member
                for member in range(self.num_replicas)
                if self._connected(coordinator, member)
            ),
            key=lambda member: (self._rtt_us(coordinator, member), member),
        )
        if not self.sloppy and len(connected) < self.read_quorum:
            raise ShardUnavailableError(self.group_id)
        targets = connected[: min(self.read_quorum, len(connected))]

        merged: Optional[Stored] = None
        latency_us = 0.0
        for member in targets:
            response = self.replicas[member].get(key)
            payload = response.payload_bytes if response is not None else 0
            response_us = (
                self._rtt_us(coordinator, member) + payload * self.byte_us
            )
            latency_us = max(latency_us, response_us)
            if response is not None:
                merged = response if merged is None else merged.merge(response)
        if merged is not None:
            # Read repair: push the merged state back to the contacted
            # members so one stale replica does not stay stale.
            for member in targets:
                if self.replicas[member].apply_stored(key, merged):
                    self.stats.read_repairs += 1

        siblings = len(merged.siblings) if merged is not None else 0
        required = self.read_quorum if not self.sloppy else 1
        self.stats.reads += 1
        if siblings > 1:
            self.stats.sibling_reads += 1
        self.read_latencies.append(latency_us)
        if self.observer.enabled:
            self.observer.count("quorum.reads")
            self.observer.observe("quorum.read_us", latency_us)
            self.observer.event(
                "quorum", "quorum.read",
                key=key, coordinator=coordinator,
                n=self.num_replicas, r=self.read_quorum, w=self.write_quorum,
                mode=self.mode, acks=len(targets), required=required,
                siblings=siblings,
                vv=merged.vv.encode() if merged is not None else "",
                latency_us=latency_us,
            )
        return merged

    def value_of(self, key: int) -> Optional[bytes]:
        """Convenience: the LWW winner's value, via a quorum read."""
        merged = self.read(key)
        return merged.winner.value if merged is not None else None

    # -- hinted handoff ------------------------------------------------------

    def _hint_holder(self, coordinator: int, target: int) -> int:
        """Next reachable member after ``target`` on the ring (falling
        back to the coordinator itself)."""
        for step in range(1, self.num_replicas):
            candidate = (target + step) % self.num_replicas
            if self._connected(coordinator, candidate):
                return candidate
        return coordinator

    def _park_hint(
        self, holder: int, target: int, key: int, stored: Stored
    ) -> None:
        per_target = self._hints.setdefault(holder, {}).setdefault(target, {})
        existing = per_target.get(key)
        per_target[key] = stored if existing is None else existing.merge(stored)

    def _deliver_hints(self) -> None:
        """Flush every hint whose holder can now reach its target."""
        delivered = 0
        delivered_bytes = 0
        for holder in sorted(self._hints):
            targets = self._hints[holder]
            for target in sorted(targets):
                if not self._connected(holder, target):
                    continue
                per_key = targets.pop(target)
                for key in sorted(per_key):
                    stored = per_key[key]
                    self.replicas[target].apply_stored(key, stored)
                    delivered += 1
                    delivered_bytes += stored.payload_bytes
            if not targets:
                del self._hints[holder]
        if delivered:
            self.stats.hints_delivered += delivered
            self.stats.handoff_bytes += delivered_bytes
            self._handoff_bytes_since_down += delivered_bytes
            if self.observer.enabled:
                self.observer.count("quorum.hints_delivered", delivered)
                self.observer.event(
                    "quorum", "quorum.handoff",
                    keys=delivered, bytes=delivered_bytes,
                )

    @property
    def hints_pending(self) -> int:
        return sum(
            len(per_key)
            for targets in self._hints.values()
            for per_key in targets.values()
        )

    # -- membership and partitions -------------------------------------------

    def check_fault(self, fault: str, *sides: Sequence[int]) -> None:
        """The one check on the members a fault names, made when the
        fault is scheduled and again when it is applied: every side is
        non-empty, every member is in ``[0, N)`` and no member is on two
        sides. A group takes every ``fault`` kind."""
        seen: Set[int] = set()
        for side in sides:
            if not side:
                raise ConfigurationError(
                    f"group {self.group_id}: a {fault} side names no member"
                )
            for member in side:
                if not 0 <= member < self.num_replicas:
                    raise ConfigurationError(
                        f"group {self.group_id} has no member {member} "
                        f"(members are 0..{self.num_replicas - 1})"
                    )
                if member in seen:
                    raise ConfigurationError(
                        f"member {member} cannot be on both sides of a "
                        f"{fault}"
                    )
            seen.update(side)

    def crash_member(self, member: int) -> None:
        self.check_fault("crash", (member,))
        if not self._alive[member]:
            return
        self._alive[member] = False
        if self.observer.enabled:
            self.observer.event("quorum", "quorum.member.crash", member=member)
        self._reevaluate()

    def recover_member(self, member: int) -> None:
        self.check_fault("recover", (member,))
        if self._alive[member]:
            return
        self._alive[member] = True
        if self.observer.enabled:
            self.observer.event(
                "quorum", "quorum.member.recover", member=member
            )
        self._deliver_hints()
        self._reevaluate()

    def apply_partition(
        self, side_a, side_b, symmetric: bool = True
    ) -> None:
        """Block traffic from ``side_a`` to ``side_b`` (both ways when
        symmetric — an asymmetric cut models one-way link loss)."""
        self.check_fault("partition", side_a, side_b)
        for a in side_a:
            for b in side_b:
                self._blocked.add((a, b))
                if symmetric:
                    self._blocked.add((b, a))
        self._reevaluate()

    def heal_partition(self) -> None:
        """Remove every cut, deliver deferred hints, re-evaluate."""
        self._blocked.clear()
        self._deliver_hints()
        self._reevaluate()

    def _reevaluate(self) -> None:
        """Track quorum-loss windows in the shared availability
        vocabulary (``fault.crash`` instant, ``takeover`` span)."""
        serving = self.is_available
        if serving and self._down_since_us is not None:
            start = self._down_since_us
            self._down_since_us = None
            self.stats.downtime_us += self.sim.now - start
            restored_bytes = self._handoff_bytes_since_down
            self._handoff_bytes_since_down = 0
            if self.observer.enabled:
                self.observer.span(
                    "cluster", "takeover", start, self.sim.now,
                    bytes_restored=restored_bytes,
                    new_primary=f"group{self.group_id}/quorum",
                )
                # The causal recovery tree. A quorum loss is observed
                # the instant a member drops (zero-width detect) and the
                # whole outage is a membership problem — no reachable
                # quorum — so the view phase spans it entirely; hinted
                # handoff delivers instantaneously on regain.
                recorder = RecoverySpanRecorder(self.observer, "cluster")
                recorder.phase(PHASE_DETECT, start, start)
                recorder.phase(
                    PHASE_VIEW, start, self.sim.now,
                    alive=sum(self._alive),
                    bytes_restored=restored_bytes,
                )
                self.last_recovery_link = recorder.finish(
                    node=f"group{self.group_id}/quorum",
                    mode=self.mode,
                )
        elif not serving and self._down_since_us is None:
            self._down_since_us = self.sim.now
            self._handoff_bytes_since_down = 0
            self.stats.quorum_losses += 1
            if self.observer.enabled:
                self.observer.event(
                    "cluster", "fault.crash",
                    node=f"group{self.group_id}/quorum",
                    reason="quorum-lost",
                    alive=sum(self._alive),
                )

    # -- anti-entropy --------------------------------------------------------

    def repair_pass(self) -> int:
        """One sweep of ring-adjacent replica pairs; returns the number
        of keys exchanged. Also the unit the background loop runs."""
        keys_synced = 0
        for left in range(self.num_replicas):
            right = (left + 1) % self.num_replicas
            if right == left:
                break
            if not (
                self._connected(left, right) and self._connected(right, left)
            ):
                continue
            start_us = self.sim.now
            stats = anti_entropy_sync(
                self.replicas[left], self.replicas[right], self.leaf_span
            )
            model_us = (
                stats.digests_compared * DIGEST_COMPARE_US
                + stats.bytes_transferred * self.byte_us
            )
            self.stats.repair_keys += stats.keys_synced
            self.stats.repair_bytes += stats.bytes_transferred
            self.stats.repair_digests += stats.digests_compared
            self.stats.repair_model_us += model_us
            keys_synced += stats.keys_synced
            if self.observer.enabled:
                self.observer.count("quorum.repair_keys", stats.keys_synced)
                self.observer.span(
                    "quorum", "quorum.repair", start_us, start_us + model_us,
                    replica_a=left, replica_b=right,
                    keys=stats.keys_synced,
                    bytes=stats.bytes_transferred,
                    digests=stats.digests_compared,
                    changed=stats.changed_a + stats.changed_b,
                )
        self.stats.repair_rounds += 1
        return keys_synced

    def _repair_round(self) -> None:
        self.repair_pass()
        self.sim.schedule_after(
            self.repair_interval_us, self._repair_round,
            name=f"group{self.group_id}-repair",
        )

    # -- inspection ----------------------------------------------------------

    def replicas_converged(self) -> bool:
        """True when every pair of replicas is byte-identical."""
        first = self.replicas[0].canonical_bytes()
        return all(
            replica.canonical_bytes() == first for replica in self.replicas[1:]
        )

    def __repr__(self) -> str:
        return (
            f"QuorumGroup(id={self.group_id}, n={self.num_replicas}, "
            f"r={self.read_quorum}, w={self.write_quorum}, "
            f"mode={self.mode}, alive={sum(self._alive)})"
        )
