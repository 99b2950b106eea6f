"""Property-based tests of the quorum architecture.

Three families of invariants, as randomized as Hypothesis can make
them:

* the version-vector merge is a semilattice join (commutative,
  associative, idempotent) and ``bump`` strictly advances;
* with R + W > N, a strict group's reads always observe the latest
  acknowledged write, under arbitrary interleavings of crashes,
  recoveries, partitions and heals — operations may *fail* with
  :class:`~repro.errors.ShardUnavailableError`, but a read that
  succeeds is never stale;
* Merkle anti-entropy converges two arbitrarily diverged replicas to
  byte-identical state in one bidirectional pass, and is idempotent
  after that.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import ShardUnavailableError
from repro.quorum.group import QuorumGroup
from repro.quorum.merkle import anti_entropy_sync
from repro.quorum.store import Record, ReplicaStore
from repro.quorum.versions import VersionVector, merge_all
from repro.sim.engine import Simulator

# -- version vectors ----------------------------------------------------------

vectors = st.builds(
    VersionVector,
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 5)), max_size=5
    ),
)


@given(a=vectors, b=vectors)
@settings(max_examples=100, deadline=None)
def test_merge_is_commutative(a, b):
    assert a.merge(b) == b.merge(a)


@given(a=vectors, b=vectors, c=vectors)
@settings(max_examples=100, deadline=None)
def test_merge_is_associative(a, b, c):
    assert a.merge(b).merge(c) == a.merge(b.merge(c))
    assert merge_all([a, b, c]) == a.merge(b).merge(c)


@given(a=vectors, b=vectors)
@settings(max_examples=100, deadline=None)
def test_merge_is_idempotent_and_an_upper_bound(a, b):
    joined = a.merge(b)
    assert joined.merge(joined) == joined
    assert a.merge(a) == a
    assert joined.descends(a) and joined.descends(b)


@given(vv=vectors, replica=st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_bump_strictly_advances(vv, replica):
    bumped = vv.bump(replica)
    assert bumped.dominates(vv)
    assert bumped.counter(replica) == vv.counter(replica) + 1
    assert VersionVector.decode(bumped.encode()) == bumped


# -- strict quorum reads observe the latest acked write -----------------------

#: One step of a fault/operation schedule. Writes carry the key and a
#: payload tag; faults carry the member (partitions isolate it).
steps = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 3), st.integers(0, 999)),
        st.tuples(st.just("read"), st.integers(0, 3), st.just(0)),
        st.tuples(st.just("crash"), st.integers(0, 2), st.just(0)),
        st.tuples(st.just("recover"), st.integers(0, 2), st.just(0)),
        st.tuples(st.just("isolate"), st.integers(0, 2), st.just(0)),
        st.tuples(st.just("heal"), st.just(0), st.just(0)),
    ),
    max_size=40,
)


@given(schedule=steps)
@settings(max_examples=60, deadline=None)
def test_strict_quorum_reads_are_never_stale(schedule):
    sim = Simulator()
    group = QuorumGroup(
        group_id=0, num_replicas=3, read_quorum=2, write_quorum=2,
        num_keys=4, sim=sim,
    )
    acked = {}  # key -> Record of the last acknowledged write
    for op, arg, payload in schedule:
        sim.run(until=sim.now + 10.0)
        if op == "write":
            try:
                record = group.write(arg, b"p%d" % payload)
            except ShardUnavailableError:
                continue
            acked[arg] = record
        elif op == "read":
            try:
                merged = group.read(arg)
            except ShardUnavailableError:
                continue
            last = acked.get(arg)
            if last is not None:
                # R+W>N: the read quorum intersects the write quorum,
                # so the merged state descends the last acked write.
                assert merged is not None
                assert merged.vv.descends(last.vv)
                assert any(s == last or s.vv.dominates(last.vv)
                           for s in merged.siblings)
        elif op == "crash":
            group.crash_member(arg)
        elif op == "recover":
            group.recover_member(arg)
        elif op == "isolate":
            others = tuple(m for m in range(3) if m != arg)
            group.heal_partition()
            group.apply_partition((arg,), others)
        elif op == "heal":
            group.heal_partition()
    # Once fully healed and repaired, the group converges.
    group.heal_partition()
    for member in range(3):
        group.recover_member(member)
    group.repair_pass()
    assert group.replicas_converged()


# -- anti-entropy convergence -------------------------------------------------

NUM_KEYS = 24


@st.composite
def store_contents(draw):
    """A random sprinkling of records over a small keyspace."""
    contents = []
    for _ in range(draw(st.integers(0, 12))):
        key = draw(st.integers(0, NUM_KEYS - 1))
        writer = draw(st.integers(0, 2))
        counter = draw(st.integers(1, 4))
        ts = float(draw(st.integers(0, 50)))
        value = draw(st.binary(min_size=1, max_size=8))
        contents.append((key, writer, counter, ts, value))
    return contents


def _fill(contents):
    store = ReplicaStore(NUM_KEYS)
    for key, writer, counter, ts, value in contents:
        store.apply(key, Record(
            value=value, vv=VersionVector([(writer, counter)]),
            ts_us=ts, writer=writer,
        ))
    return store


@given(left=store_contents(), right=store_contents())
@settings(max_examples=60, deadline=None)
def test_anti_entropy_converges_in_one_pass(left, right):
    a, b = _fill(left), _fill(right)
    anti_entropy_sync(a, b)
    assert a.canonical_bytes() == b.canonical_bytes()
    # And it is a fixpoint: the next pass moves nothing.
    again = anti_entropy_sync(a, b)
    assert again.keys_synced == 0
    assert again.bytes_transferred == 0


@given(contents=store_contents())
@settings(max_examples=40, deadline=None)
def test_anti_entropy_direction_does_not_matter(contents):
    # Syncing (a, b) or (b, a) lands both on the same joined state.
    a1, b1 = _fill(contents), ReplicaStore(NUM_KEYS)
    a2, b2 = _fill(contents), ReplicaStore(NUM_KEYS)
    anti_entropy_sync(a1, b1)
    anti_entropy_sync(b2, a2)
    assert a1.canonical_bytes() == a2.canonical_bytes()
    assert b1.canonical_bytes() == b2.canonical_bytes()
