"""Replica stores, sibling merging, and the Merkle repair comparator."""

import pytest

from repro.errors import ConfigurationError
from repro.quorum import merkle
from repro.quorum.merkle import (
    MerkleTree,
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
from repro.quorum.versions import VersionVector
from tests.oracles.diff_reference import diff_runs


def _tree(store):
    return MerkleTree(store, store.digest_view())


def record(value, vv_pairs, ts=1.0, writer=0):
    return Record(
        value=value, vv=VersionVector(vv_pairs), ts_us=ts, writer=writer
    )


# -- records and sibling sets -------------------------------------------------


def test_record_encoding_carries_version_and_value():
    rec = record(b"hello", [(0, 2)], ts=3.5, writer=1)
    encoded = rec.encode()
    assert encoded.startswith(b"0:2|3.500000|1|")
    assert encoded.endswith(b"hello")
    assert rec.payload_bytes == len(encoded)


def test_stored_orders_siblings_by_lww_key():
    older = record(b"a", [(0, 1)], ts=1.0)
    newer = record(b"b", [(1, 1)], ts=2.0, writer=1)
    stored = Stored((newer, older))
    assert stored.siblings == (older, newer)
    assert stored.winner is newer
    assert stored.vv == VersionVector([(0, 1), (1, 1)])


def test_merge_drops_dominated_siblings():
    base = record(b"old", [(0, 1)], ts=1.0)
    successor = record(b"new", [(0, 2)], ts=2.0)
    merged = Stored((base,)).merge(Stored((successor,)))
    assert merged.siblings == (successor,)


def test_merge_keeps_concurrent_siblings_and_is_commutative():
    left = record(b"left", [(0, 1)], ts=1.0, writer=0)
    right = record(b"right", [(1, 1)], ts=1.0, writer=1)
    ab = Stored((left,)).merge(Stored((right,)))
    ba = Stored((right,)).merge(Stored((left,)))
    assert ab == ba
    assert len(ab.siblings) == 2
    # Idempotent: merging again changes nothing.
    assert ab.merge(ab) == ab


def test_store_apply_reports_state_changes():
    store = ReplicaStore(8)
    rec = record(b"v", [(0, 1)])
    assert store.apply(3, rec) is True
    assert store.apply(3, rec) is False  # same record: no change
    assert [k for k in range(8) if store.get(k) is not None] == [3]
    assert store.get(3).winner == rec
    with pytest.raises(ConfigurationError):
        store.get(8)


def test_key_digest_is_empty_for_absent_and_cell_width_for_present():
    store = ReplicaStore(4)
    assert bytes(store.digest_view()[:DIGEST_BYTES]) == EMPTY_DIGEST
    store.apply(0, record(b"x", [(0, 1)]))
    cells = bytes(store.digest_view())
    digest = cells[:DIGEST_BYTES]
    assert digest != EMPTY_DIGEST and len(digest) == DIGEST_BYTES
    assert cells == digest + EMPTY_DIGEST * 3


# -- Merkle trees -------------------------------------------------------------


def test_identical_stores_have_identical_roots():
    a, b = ReplicaStore(32), ReplicaStore(32)
    for key in (0, 9, 31):
        rec = record(b"same", [(0, 1)], ts=float(key))
        a.apply(key, rec)
        b.apply(key, rec)
    ta, tb = _tree(a), _tree(b)
    assert ta.root == tb.root
    leaves, compared = diff_leaves(ta, tb)
    assert leaves == []
    assert compared == 1  # one root compare settles it


def test_diff_leaves_localizes_the_divergent_leaf():
    a, b = ReplicaStore(32), ReplicaStore(32)
    a.apply(17, record(b"only-a", [(0, 1)]))
    leaves, compared = diff_leaves(_tree(a), _tree(b))
    assert leaves == [17 // 8]
    # Pruning means far fewer compares than leaves.
    assert compared < sum(map(len, _tree(a).levels))


def test_trees_of_different_geometry_refuse_to_diff():
    a, b = ReplicaStore(32), ReplicaStore(16)
    with pytest.raises(ConfigurationError):
        diff_leaves(_tree(a), _tree(b))


def test_differing_keys_is_exact():
    a, b = ReplicaStore(64), ReplicaStore(64)
    shared = record(b"shared", [(0, 1)])
    for key in range(0, 64, 3):
        a.apply(key, shared)
        b.apply(key, shared)
    a.apply(5, record(b"a-only", [(0, 1)]))
    b.apply(41, record(b"b-only", [(1, 1)]))
    b.apply(42, record(b"b-only-2", [(1, 1)]))
    keys, _compared = differing_keys(a, b)
    assert keys == [5, 41, 42]


@pytest.mark.parametrize("fast", [True, False])
def test_differing_keys_identical_across_fastpath(fast, monkeypatch):
    """The leaf compare as shipped (the big-int kernel) and with the
    word-loop oracle substituted for it."""
    if not fast:
        monkeypatch.setattr(merkle, "diff_runs_fast", diff_runs)
    a, b = ReplicaStore(40), ReplicaStore(40)
    for key in (2, 13, 27, 39):
        a.apply(key, record(b"diverged", [(0, 1)], ts=float(key)))
    assert differing_keys(a, b)[0] == [2, 13, 27, 39]


# -- anti-entropy -------------------------------------------------------------


def test_one_sync_pass_converges_two_replicas():
    a, b = ReplicaStore(32), ReplicaStore(32)
    a.apply(1, record(b"from-a", [(0, 1)], ts=1.0))
    b.apply(1, record(b"from-b", [(1, 1)], ts=2.0, writer=1))
    b.apply(20, record(b"b-only", [(1, 2)], ts=3.0, writer=1))
    stats = anti_entropy_sync(a, b)
    assert stats.keys_synced == 2
    assert stats.changed_a > 0 and stats.changed_b > 0
    assert stats.bytes_transferred > 0
    assert a.canonical_bytes() == b.canonical_bytes()
    # Key 1 kept both concurrent writes as siblings on both sides.
    assert len(a.get(1).siblings) == 2
    # A second pass has nothing to move.
    again = anti_entropy_sync(a, b)
    assert again.keys_synced == 0
    assert again.digests_compared == 1


# -- the repair hot path stays zero-copy --------------------------------------


def test_digest_view_matches_leaf_bytes_and_is_readonly():
    store = ReplicaStore(12)
    for key in (0, 3, 7):
        store.apply(key, record(bytes([key]), [(0, key + 1)]))
    view = store.digest_view()
    assert view.readonly
    before = bytes(view)
    assert before == store._digests.read(0, store.num_keys * DIGEST_BYTES)
    # Writes after a view dirty the cells; the next view sees them.
    store.apply(5, record(b"late", [(1, 1)]))
    refreshed = bytes(store.digest_view())
    assert refreshed != before
    assert refreshed == store._digests.read(0, store.num_keys * DIGEST_BYTES)


def test_repair_hot_path_makes_no_intermediate_bytes(monkeypatch):
    """The sync pass must run entirely on hoisted digest views:
    tree builds and leaf diffs slice one view per store, and nothing
    on the path materializes per-leaf ``bytes`` through a region
    ``read``. Regression guard for the view hoist."""
    a = ReplicaStore(64)
    b = ReplicaStore(64)
    for key in range(0, 64, 3):
        a.apply(key, record(b"a" * 8, [(0, key + 1)], ts=1.0))
    for key in range(0, 64, 5):
        b.apply(key, record(b"b" * 8, [(1, key + 1)], ts=2.0, writer=1))

    def boom(self, *args, **kwargs):
        raise AssertionError(
            "repair hot path materialized intermediate bytes"
        )

    monkeypatch.setattr(type(a._digests), "read", boom)
    keys, compared = differing_keys(a, b)
    assert keys and compared
    stats = anti_entropy_sync(a, b)
    assert stats.keys_synced == len(keys)
    assert a.canonical_bytes() == b.canonical_bytes()
