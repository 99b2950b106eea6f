"""Version vectors: causality tracking for leaderless replication.

A :class:`VersionVector` maps replica indexes to per-replica write
counters. Two vectors are comparable when one's counters are all >=
the other's (the writes one summarizes *descend from* the other's);
otherwise the writes they stamp happened concurrently — on different
sides of a partition, or through different coordinators — and both
values must be kept as *siblings* until something (last-writer-wins at
read time, or an anti-entropy merge) resolves them.

The algebra the property suite pins down: :meth:`merge` is
commutative, associative and idempotent (a join semilattice), and
:meth:`bump` strictly advances the bumping replica's counter, so a
coordinator's own writes are always totally ordered.

Vectors are immutable and hashable; the wire/trace encoding
(:meth:`encode` / :meth:`decode`) is a canonical sorted string such as
``"0:3,2:1"`` so vectors survive the JSONL trace round-trip and the
auditor can re-check monotonicity offline.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple


class VersionVector:
    """An immutable replica-index -> counter map."""

    __slots__ = ("_counters",)

    def __init__(self, counters: Iterable[Tuple[int, int]] = ()):
        cleaned = {
            int(replica): int(count)
            for replica, count in dict(counters).items()
            if int(count) > 0
        }
        self._counters: Tuple[Tuple[int, int], ...] = tuple(
            sorted(cleaned.items())
        )

    # -- access --------------------------------------------------------------

    def counter(self, replica: int) -> int:
        for index, count in self._counters:
            if index == replica:
                return count
        return 0

    def __bool__(self) -> bool:
        return bool(self._counters)

    # -- algebra -------------------------------------------------------------

    def bump(self, replica: int) -> "VersionVector":
        """A new vector with ``replica``'s counter advanced by one —
        the stamp a coordinator puts on a fresh write."""
        counters = dict(self._counters)
        counters[replica] = counters.get(replica, 0) + 1
        return VersionVector(counters.items())

    def merge(self, other: "VersionVector") -> "VersionVector":
        """Pointwise maximum: the least vector that descends from both
        (commutative, associative, idempotent)."""
        counters = dict(self._counters)
        for replica, count in other._counters:
            if count > counters.get(replica, 0):
                counters[replica] = count
        return VersionVector(counters.items())

    # -- comparison ----------------------------------------------------------

    def descends(self, other: "VersionVector") -> bool:
        """True when this vector's history includes all of ``other``'s
        (every counter >=). Equal vectors descend from each other."""
        return all(
            self.counter(replica) >= count for replica, count in other._counters
        )

    def dominates(self, other: "VersionVector") -> bool:
        """Strictly newer: descends from ``other`` and differs."""
        return self.descends(other) and self._counters != other._counters

    # -- encoding ------------------------------------------------------------

    def encode(self) -> str:
        """Canonical string form (``"0:3,2:1"``; ``""`` when empty)."""
        return ",".join(f"{r}:{c}" for r, c in self._counters)

    @classmethod
    def decode(cls, text: str) -> "VersionVector":
        if not text:
            return cls()
        pairs = []
        for item in text.split(","):
            replica, _, count = item.partition(":")
            pairs.append((int(replica), int(count)))
        return cls(pairs)

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VersionVector):
            return NotImplemented
        return self._counters == other._counters

    def __hash__(self) -> int:
        return hash(self._counters)

    def __repr__(self) -> str:
        return f"VersionVector({self.encode()!r})"


def merge_all(vectors: Iterable[VersionVector]) -> VersionVector:
    """Fold :meth:`VersionVector.merge` over ``vectors``."""
    merged = VersionVector()
    for vector in vectors:
        merged = merged.merge(vector)
    return merged
