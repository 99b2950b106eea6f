"""Merkle trees and anti-entropy synchronization between replicas.

A :class:`MerkleTree` summarizes a :class:`~repro.quorum.store.
ReplicaStore` bottom-up: each leaf hashes a fixed span of key digest
cells, interior nodes hash their children, and two replicas compare
state by walking the trees from the root — identical subtrees are
dismissed with one digest compare, so a mostly-converged pair touches
O(log keys) hashes plus the few differing leaves.

At a differing leaf the comparator drops to bytes: both replicas'
leaf buffers (fixed 20-byte digest cells per key) are diffed with
:func:`repro.fastpath.kernels.diff_runs_fast` — the same big-int
XOR kernel the Version 2 mirror refresh uses — and the word-aligned
runs of difference map back to exactly the divergent key indexes.
:func:`anti_entropy_sync` then exchanges those keys' sibling sets in
both directions and merges, which is idempotent and commutative, so
repeated rounds converge replicas to byte-identical state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.fastpath.kernels import diff_runs_fast
from repro.quorum.store import DIGEST_BYTES, ReplicaStore

#: Keys per Merkle leaf.
LEAF_SPAN = 8


class MerkleTree:
    """Digest tree over one replica's keyspace.

    ``levels[0]`` holds the leaf digests; each higher level pairs the
    one below (an odd tail node is re-hashed alone) up to the root.
    """

    def __init__(self, store: ReplicaStore, digests: memoryview):
        self.num_leaves = (store.num_keys + LEAF_SPAN - 1) // LEAF_SPAN
        # ``digests`` is one zero-copy view of the store's digest cells
        # for the whole build (the caller's sync pass holds it), sliced
        # per leaf — no per-leaf ``bytes`` is ever materialized.
        cell_span = LEAF_SPAN * DIGEST_BYTES
        total = store.num_keys * DIGEST_BYTES
        leaves = [
            hashlib.sha1(
                digests[start : min(start + cell_span, total)]
            ).digest()
            for start in range(0, total, cell_span)
        ]
        self.levels: List[List[bytes]] = [leaves]
        while len(self.levels[-1]) > 1:
            below = self.levels[-1]
            above = []
            for index in range(0, len(below), 2):
                pair = below[index : index + 2]
                above.append(hashlib.sha1(b"".join(pair)).digest())
            self.levels.append(above)

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    def __repr__(self) -> str:
        return (
            f"MerkleTree({self.num_leaves} leaves x {LEAF_SPAN} keys, "
            f"root {self.root.hex()[:8]})"
        )


def diff_leaves(a: MerkleTree, b: MerkleTree) -> Tuple[List[int], int]:
    """Leaf indexes whose digests differ, plus digests compared.

    Walks both trees top-down and prunes identical subtrees, so the
    digest-compare count is the honest cost of the exchange a real
    anti-entropy session would pay.
    """
    if a.num_leaves != b.num_leaves:
        raise ConfigurationError("cannot diff trees of different geometry")
    compared = 1
    if a.root == b.root:
        return [], compared
    differing: List[int] = []
    # (level, index) frontier, walking from just below the root.
    frontier = [(len(a.levels) - 1, 0)]
    while frontier:
        level, index = frontier.pop()
        if level == 0:
            differing.append(index)
            continue
        below = level - 1
        for child in (2 * index, 2 * index + 1):
            if child >= len(a.levels[below]):
                continue
            compared += 1
            if a.levels[below][child] != b.levels[below][child]:
                frontier.append((below, child))
    differing.sort()
    return differing, compared


def differing_keys(
    store_a: ReplicaStore, store_b: ReplicaStore
) -> Tuple[List[int], int]:
    """Exact divergent key indexes between two replicas.

    Returns ``(keys, digests_compared)``. Leaf-level comparison runs
    through the fast diff kernel on the concatenated digest cells —
    one zero-copy digest view per store for the whole pass (tree build
    and leaf diffs both slice it), no intermediate ``bytes``.
    """
    digests_a = store_a.digest_view()
    digests_b = store_b.digest_view()
    tree_a = MerkleTree(store_a, digests=digests_a)
    tree_b = MerkleTree(store_b, digests=digests_b)
    leaves, compared = diff_leaves(tree_a, tree_b)
    keys: List[int] = []
    cell_span = LEAF_SPAN * DIGEST_BYTES
    total = store_a.num_keys * DIGEST_BYTES
    for leaf in leaves:
        start = leaf * cell_span
        stop = min(start + cell_span, total)
        buffer_a = digests_a[start:stop]
        buffer_b = digests_b[start:stop]
        touched = set()
        for offset, length in diff_runs_fast(buffer_a, buffer_b):
            first = offset // DIGEST_BYTES
            last = (offset + length - 1) // DIGEST_BYTES
            touched.update(range(first, last + 1))
        start_key = leaf * LEAF_SPAN
        keys.extend(sorted(start_key + cell for cell in touched))
    return keys, compared


@dataclass
class SyncStats:
    """What one anti-entropy exchange moved."""

    keys_synced: int = 0
    bytes_transferred: int = 0
    digests_compared: int = 0
    changed_a: int = 0
    changed_b: int = 0


def anti_entropy_sync(store_a: ReplicaStore, store_b: ReplicaStore) -> SyncStats:
    """One bidirectional repair pass between two replicas.

    Every divergent key's sibling set crosses the wire in whichever
    directions carry information, and both sides merge. Because the
    merge is a semilattice join, a single pass converges the pair:
    afterwards their canonical bytes — and Merkle roots — are equal.
    """
    keys, compared = differing_keys(store_a, store_b)
    stats = SyncStats(digests_compared=compared)
    for key in keys:
        stored_a = store_a.get(key)
        stored_b = store_b.get(key)
        stats.keys_synced += 1
        if stored_a is not None:
            if store_b.apply_stored(key, stored_a):
                stats.changed_b += 1
            stats.bytes_transferred += stored_a.payload_bytes
        if stored_b is not None:
            if store_a.apply_stored(key, stored_b):
                stats.changed_a += 1
            stats.bytes_transferred += stored_b.payload_bytes
    return stats
