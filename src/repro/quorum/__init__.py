"""Leaderless N-replica quorum groups — the third architecture.

The paper's passive and active backups are both primary-backup; this
package reproduces the obvious third point in the design space (Kumar
& Agarwal's read-dominant quorum consensus): N equal replicas, R/W
quorum reads and writes with per-record version vectors, sloppy-quorum
hinted handoff, and Merkle-tree anti-entropy repair whose leaf
comparator is the fastpath diff kernel.

Layering, bottom up:

* :mod:`repro.quorum.versions` — the version-vector semilattice.
* :mod:`repro.quorum.store` — per-replica sibling-set storage and the
  fixed-width digest cells the repair comparator diffs.
* :mod:`repro.quorum.merkle` — Merkle trees, divergent-key discovery,
  and the bidirectional anti-entropy exchange.
* :mod:`repro.quorum.group` — the quorum protocol itself over the
  shared simulator, with the trace vocabulary the auditor checks.
* :mod:`repro.quorum.workload` / :mod:`repro.quorum.cluster` — the
  client stream and the router-compatible cluster facade.
"""

from repro.quorum.cluster import QuorumCluster
from repro.quorum.group import (
    MODE_SLOPPY,
    MODE_STRICT,
    QuorumGroup,
    QuorumGroupStats,
)
from repro.quorum.merkle import (
    LEAF_SPAN,
    MerkleTree,
    SyncStats,
    anti_entropy_sync,
    diff_leaves,
    differing_keys,
)
from repro.quorum.store import (
    DIGEST_BYTES,
    EMPTY_DIGEST,
    Record,
    ReplicaStore,
    Stored,
)
from repro.quorum.versions import VersionVector, merge_all
from repro.quorum.workload import KeyPartitioner, QuorumWorkload

__all__ = [
    "DIGEST_BYTES",
    "EMPTY_DIGEST",
    "KeyPartitioner",
    "LEAF_SPAN",
    "MODE_SLOPPY",
    "MODE_STRICT",
    "MerkleTree",
    "QuorumCluster",
    "QuorumGroup",
    "QuorumGroupStats",
    "QuorumWorkload",
    "Record",
    "ReplicaStore",
    "Stored",
    "SyncStats",
    "VersionVector",
    "anti_entropy_sync",
    "diff_leaves",
    "differing_keys",
    "merge_all",
]
