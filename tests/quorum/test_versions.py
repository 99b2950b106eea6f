"""Version vectors: the semilattice algebra, comparisons, encoding."""

import pytest

from repro.quorum.versions import VersionVector, merge_all


def test_empty_vector_is_falsy_and_encodes_empty():
    vv = VersionVector()
    assert not vv
    assert vv.encode() == ""
    assert vv.counter(0) == 0
    assert VersionVector.decode("") == vv


def test_bump_advances_only_the_bumping_replica():
    vv = VersionVector().bump(2)
    assert vv.counter(2) == 1
    assert vv.counter(0) == 0
    again = vv.bump(2).bump(0)
    assert again.counter(2) == 2
    assert again.counter(0) == 1
    # Immutable: the original never moved.
    assert vv.counter(2) == 1


def test_zero_counters_are_dropped_from_the_representation():
    assert VersionVector([(0, 0), (1, 2)]) == VersionVector([(1, 2)])


def test_merge_is_pointwise_max():
    a = VersionVector([(0, 3), (1, 1)])
    b = VersionVector([(1, 4), (2, 2)])
    merged = a.merge(b)
    assert merged == VersionVector([(0, 3), (1, 4), (2, 2)])


def test_descends_dominates_concurrent():
    base = VersionVector([(0, 1)])
    newer = base.bump(0)
    other = base.bump(1)
    assert newer.descends(base) and newer.dominates(base)
    assert base.descends(base) and not base.dominates(base)
    assert not other.descends(newer) and not newer.descends(other)
    # Merging two concurrent vectors descends from both.
    joined = newer.merge(other)
    assert joined.descends(newer) and joined.descends(other)


def test_encode_decode_round_trip_is_canonical():
    vv = VersionVector([(2, 1), (0, 3)])
    assert vv.encode() == "0:3,2:1"
    assert VersionVector.decode(vv.encode()) == vv
    assert hash(VersionVector.decode(vv.encode())) == hash(vv)


def test_merge_all_folds_every_vector():
    vectors = [
        VersionVector([(0, 1)]),
        VersionVector([(1, 5)]),
        VersionVector([(0, 2), (2, 1)]),
    ]
    merged = merge_all(vectors)
    assert merged == VersionVector([(0, 2), (1, 5), (2, 1)])
    assert merge_all([]) == VersionVector()


def test_vectors_are_not_equal_to_other_types():
    assert VersionVector() != "0:1"
    with pytest.raises(TypeError):
        VersionVector() < VersionVector()
