"""Traffic and availability cost model for leaderless quorum groups.

The paper's cost story is a two-node one: passive backup ships diffs
to one mirror, active backup ships operations. A leaderless N-replica
group (:mod:`repro.quorum`) changes both sides of the ledger at once:

* **Traffic** — every write is stored N times, so N-1 copies cross the
  wire (hinted copies included: a hint is a copy parked one hop away),
  and a quorum read pulls R-1 remote responses where a primary serves
  reads locally. Replication traffic therefore scales with the quorum
  geometry, not with the workload alone.
* **Availability** — with independent per-replica availability ``a``,
  a strict group serves while at least ``max(R, W)`` replicas are up
  and a sloppy group while at least one is, so group availability is
  the binomial tail. This is the steady-state number; the failover
  *windows* that separate a quorum group from a primary-backup pair
  under the same crash schedule are measured from traces by the
  ``quorum`` extension experiment, not modeled here.

The same report shape describes a primary-backup pair (N=2, one copy
shipped, local reads), which is what makes the three architectures
comparable row by row in one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


def binomial_availability(
    replicas: int, needed: int, replica_availability: float
) -> float:
    """P(at least ``needed`` of ``replicas`` independent replicas up).

    The classic k-of-n availability tail: each replica is up with
    probability ``replica_availability`` independently.
    """
    if replicas < 1:
        raise ConfigurationError("need at least one replica")
    if not 0.0 <= replica_availability <= 1.0:
        raise ConfigurationError(
            f"replica availability {replica_availability} outside [0, 1]"
        )
    a = replica_availability
    return sum(
        math.comb(replicas, k) * a**k * (1.0 - a) ** (replicas - k)
        for k in range(needed, replicas + 1)
    )


@dataclass(frozen=True)
class QuorumCostReport:
    """Steady-state cost of one (N, R, W) quorum configuration."""

    label: str
    replicas: int
    read_quorum: int
    write_quorum: int
    sloppy: bool
    replica_availability: float
    record_bytes: int
    availability: float
    write_bytes_per_txn: float
    read_bytes_per_txn: float

    @property
    def mode(self) -> str:
        return "sloppy" if self.sloppy else "strict"

    @property
    def intersects(self) -> bool:
        """Whether every read quorum meets every write quorum (the
        R + W > N condition behind read-latest)."""
        return self.read_quorum + self.write_quorum > self.replicas

    def traffic_ratio(self, baseline: "QuorumCostReport") -> float:
        """This configuration's total per-transaction wire bytes as a
        multiple of ``baseline``'s (one read + one write each)."""
        mine = self.write_bytes_per_txn + self.read_bytes_per_txn
        theirs = baseline.write_bytes_per_txn + baseline.read_bytes_per_txn
        if theirs == 0:
            raise ConfigurationError("baseline ships no bytes")
        return mine / theirs


def quorum_cost(
    replicas: int,
    read_quorum: int,
    write_quorum: int,
    replica_availability: float,
    record_bytes: int,
    sloppy: bool = False,
) -> QuorumCostReport:
    """Cost one (N, R, W) configuration.

    A strict group needs ``max(R, W)`` reachable replicas to run the
    read-modify-write transactions the benchmarks issue; a sloppy group
    runs on any live replica (hints stand in for the missing copies).
    """
    if not 1 <= read_quorum <= replicas:
        raise ConfigurationError(
            f"read quorum {read_quorum} outside [1, {replicas}]"
        )
    if not 1 <= write_quorum <= replicas:
        raise ConfigurationError(
            f"write quorum {write_quorum} outside [1, {replicas}]"
        )
    if record_bytes < 1:
        raise ConfigurationError("records must carry at least one byte")
    needed = 1 if sloppy else max(read_quorum, write_quorum)
    availability = binomial_availability(
        replicas, needed, replica_availability
    )
    return QuorumCostReport(
        label=f"quorum {replicas}/{read_quorum}/{write_quorum}",
        replicas=replicas,
        read_quorum=read_quorum,
        write_quorum=write_quorum,
        sloppy=sloppy,
        replica_availability=replica_availability,
        record_bytes=record_bytes,
        availability=availability,
        write_bytes_per_txn=float((replicas - 1) * record_bytes),
        read_bytes_per_txn=float((read_quorum - 1) * record_bytes),
    )


def primary_backup_cost(
    replica_availability: float, record_bytes: int
) -> QuorumCostReport:
    """The two-node pair in the same report shape: one shipped copy
    per write, local reads, up while either node is (the steady-state
    view — the pair's failover window is a trace-measured cost the
    model deliberately leaves out)."""
    return QuorumCostReport(
        label="primary-backup pair",
        replicas=2,
        read_quorum=1,
        write_quorum=1,
        sloppy=False,
        replica_availability=replica_availability,
        record_bytes=record_bytes,
        availability=binomial_availability(2, 1, replica_availability),
        write_bytes_per_txn=float(record_bytes),
        read_bytes_per_txn=0.0,
    )
