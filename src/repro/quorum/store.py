"""Per-replica record storage with version vectors and siblings.

Each replica of a quorum group holds a :class:`ReplicaStore`: a map of
integer keys to :class:`Stored` entries. A stored entry is the *set*
of sibling :class:`Record` versions whose version vectors are mutually
concurrent — one sibling in the common case, several after writes on
both sides of a partition — plus the merged vector summarizing all of
them. Merging is deterministic and order-independent: dominated
siblings are dropped, concurrent ones accumulate, and reads resolve
the survivors by last-writer-wins (simulated timestamp, then writer
index) while still reporting how many siblings the resolution hid.

The store also owns the byte-level identity the Merkle machinery
diffs: every key has a fixed-width 20-byte digest cell
(:meth:`ReplicaStore.key_digest`), and a leaf's cells concatenate into
a buffer whose word-aligned runs of difference —
:func:`repro.fastpath.kernels.diff_runs_fast` — map straight back to
key indexes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.memory.region import MemoryRegion
from repro.quorum.versions import VersionVector, merge_all

#: Fixed width of one key's digest cell in a Merkle leaf buffer.
#: 20 bytes (SHA-1) is a multiple of the 4-byte diff word, so run
#: offsets from the diff kernel land on cell boundaries cleanly.
DIGEST_BYTES = 20

#: The digest cell of a key with no stored record.
EMPTY_DIGEST = b"\x00" * DIGEST_BYTES


@dataclass(frozen=True)
class Record:
    """One written version of one key."""

    value: bytes
    vv: VersionVector
    ts_us: float  # coordinator's simulated write time (LWW primary key)
    writer: int  # coordinating replica index (LWW tiebreak)

    def encode(self) -> bytes:
        """Canonical byte form (digests and transfer accounting)."""
        header = f"{self.vv.encode()}|{self.ts_us:.6f}|{self.writer}|"
        return header.encode("ascii") + self.value

    @property
    def payload_bytes(self) -> int:
        return len(self.encode())

    def lww_key(self) -> Tuple[float, int, bytes]:
        return (self.ts_us, self.writer, self.value)


@dataclass(frozen=True)
class Stored:
    """One key's surviving sibling set, newest-merge state."""

    siblings: Tuple[Record, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.siblings, key=Record.lww_key))
        object.__setattr__(self, "siblings", ordered)

    @property
    def vv(self) -> VersionVector:
        """The merged vector every sibling's history is folded into."""
        return merge_all(record.vv for record in self.siblings)

    @property
    def winner(self) -> Record:
        """Last-writer-wins resolution of the sibling set."""
        return self.siblings[-1]

    @property
    def payload_bytes(self) -> int:
        return sum(record.payload_bytes for record in self.siblings)

    def encode(self) -> bytes:
        return b";".join(record.encode() for record in self.siblings)

    def merge(self, other: "Stored") -> "Stored":
        """Union of both sibling sets with dominated versions dropped.

        Commutative and idempotent — the anti-entropy exchange applies
        it in both directions and converges.
        """
        combined: List[Record] = list(dict.fromkeys(self.siblings + other.siblings))
        survivors = [
            record
            for record in combined
            if not any(
                record is not rival and rival.vv.dominates(record.vv)
                for rival in combined
            )
        ]
        return Stored(tuple(survivors))


class ReplicaStore:
    """One replica's keyed record store over a fixed keyspace."""

    def __init__(self, num_keys: int):
        if num_keys < 1:
            raise ConfigurationError("need at least one key")
        self.num_keys = num_keys
        self._data: Dict[int, Stored] = {}
        # The digest cells live in one contiguous memory region
        # (zeroed == every key at EMPTY_DIGEST), maintained lazily:
        # writes mark keys dirty and the next identity read flushes.
        # A key's sha1 is thus computed once per modification instead
        # of once per Merkle tree build, and the Merkle machinery
        # reads the cells through a single zero-copy view per pass.
        self._digests = MemoryRegion(
            "quorum/digests", num_keys * DIGEST_BYTES
        )
        self._dirty: set = set()

    def _check_key(self, key: int) -> None:
        if key < 0 or key >= self.num_keys:
            raise ConfigurationError(
                f"key {key} outside keyspace [0, {self.num_keys})"
            )

    # -- reads ---------------------------------------------------------------

    def get(self, key: int) -> Optional[Stored]:
        self._check_key(key)
        return self._data.get(key)

    # -- writes --------------------------------------------------------------

    def apply(self, key: int, record: Record) -> bool:
        """Merge one record in; returns True when state changed."""
        return self.apply_stored(key, Stored((record,)))

    def apply_stored(self, key: int, stored: Stored) -> bool:
        """Merge a full sibling set (the anti-entropy transfer unit)."""
        self._check_key(key)
        current = self._data.get(key)
        merged = stored if current is None else current.merge(stored)
        if current is not None and merged.siblings == current.siblings:
            return False
        self._data[key] = merged
        self._dirty.add(key)
        return True

    # -- identity ------------------------------------------------------------

    def _flush_digests(self) -> None:
        """Refresh the digest cells of keys written since the last
        identity read."""
        if not self._dirty:
            return
        poke = self._digests.poke
        data = self._data
        for key in self._dirty:
            poke(
                key * DIGEST_BYTES,
                hashlib.sha1(data[key].encode()).digest(),
            )
        self._dirty.clear()

    def digest_view(self) -> memoryview:
        """A read-only zero-copy view of every key's digest cell.

        This is the buffer the Merkle machinery consumes: one view per
        tree build / sync pass, sliced per leaf, with no intermediate
        ``bytes`` on the repair hot path.
        """
        self._flush_digests()
        return self._digests.view(0, self.num_keys * DIGEST_BYTES)

    def canonical_bytes(self) -> bytes:
        """The whole replica's canonical byte image: replicas are
        converged exactly when these compare equal."""
        parts = []
        for key in sorted(self._data):
            parts.append(f"{key}=".encode("ascii"))
            parts.append(self._data[key].encode())
            parts.append(b"\n")
        return b"".join(parts)

    def __repr__(self) -> str:
        return f"ReplicaStore({len(self._data)}/{self.num_keys} keys)"
