"""Property-based equivalence of the memory region and its oracle.

:class:`~repro.memory.region.MemoryRegion` moves bytes by memoryview
slice assignment over a numpy-allocated buffer;
``tests/oracles/region_reference.py`` keeps the ``bytearray`` backing
and read-then-write copies it replaced, and the difference must be
invisible everywhere the reproduction can look. Random operation
sequences — writes, pokes, fills, overlapping in-region copies,
cross-region copies (mixed backings included), protection windows,
out-of-bounds attempts — must leave the region and
:class:`ReferenceMemoryRegion` with identical bytes, identical
observer event streams, identical statistics, and identical error
behaviour, at every offset alignment (the region size is prime, so
partial words and boundary tails occur constantly). The word
accessors and ``write_run`` are held to the byte path the same way:
each is exactly the ``write`` calls it stands for. On top of the
region-level properties, a full Vista engine must produce identical
:class:`~repro.vista.stats.AccessProfile` snapshots and counters with
either underneath it.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CrashedError, OutOfBoundsError, ProtectionError
from repro.fastpath.kernels import diff_runs_fast
from repro.memory import rio
from repro.memory.region import MemoryRegion, WriteCategory
from repro.replication.passive import PassiveReplicatedSystem
from repro.vista import EngineConfig
from repro.workloads import DebitCreditWorkload, run_workload
from tests.oracles.diff_reference import diff_runs
from tests.oracles.region_reference import ReferenceMemoryRegion

#: Prime, so leaf/word/page boundaries never line up with the size.
SIZE = 193

both_regions = pytest.mark.parametrize(
    "region_cls", [MemoryRegion, ReferenceMemoryRegion],
    ids=["MemoryRegion", "oracle"])

_categories = st.sampled_from(list(WriteCategory))

#: One region operation. Offsets/lengths deliberately range past the
#: region end so both backings' error paths are exercised too.
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            st.integers(0, SIZE + 8),
            st.binary(min_size=0, max_size=41),
            _categories,
        ),
        st.tuples(
            st.just("poke"), st.integers(0, SIZE + 8),
            st.binary(min_size=0, max_size=41),
        ),
        st.tuples(st.just("fill"), st.integers(0, 255)),
        st.tuples(
            st.just("copy"),
            st.integers(0, SIZE + 8),   # src (overlap with dst common)
            st.integers(0, SIZE + 8),   # dst
            st.integers(0, 48),
            _categories,
        ),
        st.tuples(
            st.just("xcopy"),           # from the paired source region
            st.integers(0, SIZE + 8),
            st.integers(0, SIZE + 8),
            st.integers(0, 48),
            _categories,
        ),
        st.tuples(st.just("protect")),
        st.tuples(st.just("unprotect")),
        st.tuples(
            st.just("window"), st.integers(0, SIZE + 8), st.integers(0, 32)
        ),
        st.tuples(st.just("close")),
    ),
    min_size=0,
    max_size=40,
)

#: Deterministic source-region image for the cross-copy op.
_SOURCE_IMAGE = bytes((i * 37 + 11) % 256 for i in range(SIZE))


def _instrumented(region):
    """Attach an observer; returns the recorded stream."""
    events = []
    region.add_observer(
        lambda offset, length, category:
        events.append((offset, length, category))
    )
    return events


def _drive(region, source, ops):
    """Apply ``ops``; returns per-op outcomes (None or the raised
    exception type — error behaviour must match across backings)."""
    outcomes = []
    for op in ops:
        try:
            if op[0] == "write":
                region.write(op[1], op[2], op[3])
            elif op[0] == "poke":
                region.poke(op[1], op[2])
            elif op[0] == "fill":
                region.fill(op[1])
            elif op[0] == "copy":
                region.copy_within(op[1], op[2], op[3], op[4])
            elif op[0] == "xcopy":
                region.copy_from(source, op[1], op[2], op[3], op[4])
            elif op[0] == "protect":
                region.protect()
            elif op[0] == "unprotect":
                region.unprotect()
            elif op[0] == "window":
                region.open_window(op[1], op[2])
            elif op[0] == "close":
                region.close_window()
            outcomes.append(None)
        except Exception as error:  # noqa: BLE001 - compared by type
            outcomes.append(type(error))
    return outcomes


def _run_backend(region_cls, source_cls, ops):
    region = region_cls("target", SIZE)
    source = source_cls("source", SIZE)
    source.poke(0, _SOURCE_IMAGE)
    events = _instrumented(region)
    outcomes = _drive(region, source, ops)
    return {
        "bytes": region.snapshot(),
        "events": events,
        "writes_observed": region.writes_observed,
        "bytes_written": region.bytes_written,
        "outcomes": outcomes,
    }


@settings(max_examples=200, deadline=None)
@given(ops=_ops)
def test_numpy_region_matches_reference(ops):
    """Op for op: same bytes, same observer streams, same statistics,
    same exception types — numpy-allocated region vs bytearray
    reference."""
    reference = _run_backend(ReferenceMemoryRegion, ReferenceMemoryRegion, ops)
    shipped = _run_backend(MemoryRegion, MemoryRegion, ops)
    assert shipped == reference


@settings(max_examples=100, deadline=None)
@given(ops=_ops)
def test_mixed_backings_match_reference(ops):
    """``copy_from`` across backings (numpy-allocated target,
    bytearray source) is the same slice assignment; it must be just as
    invisible."""
    reference = _run_backend(ReferenceMemoryRegion, ReferenceMemoryRegion, ops)
    mixed = _run_backend(MemoryRegion, ReferenceMemoryRegion, ops)
    assert mixed == reference


@settings(max_examples=60, deadline=None)
@given(ops_a=_ops, ops_b=_ops)
def test_diff_over_region_views_is_backend_invariant(ops_a, ops_b):
    """The diff kernel and its word-loop oracle, fed zero-copy views
    of either backing, report the same difference runs."""
    runs = []
    for cls in (ReferenceMemoryRegion, MemoryRegion):
        a = cls("a", SIZE)
        b = cls("b", SIZE)
        source = cls("source", SIZE)
        source.poke(0, _SOURCE_IMAGE)
        _drive(a, source, ops_a)
        _drive(b, source, ops_b)
        view_a = a.view(0, SIZE)
        view_b = b.view(0, SIZE)
        runs.append(
            (
                diff_runs_fast(view_a, view_b),
                list(diff_runs(view_a, view_b)),
            )
        )
    assert runs[0] == runs[1]
    assert runs[0][0] == runs[0][1]


# -- word accessors vs the byte path ----------------------------------

_U64 = struct.Struct("<Q")
_ZERO = bytes(8)
_offsets = st.integers(-9, SIZE + 8)  # both ends overrun

#: Word and byte accesses interleaved with everything that can make
#: one fail: protection windows (open, closed, straddled), a crash.
_word_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("write_u64"), _offsets,
            st.one_of(st.integers(0, 2**64 - 1), st.sampled_from((-1, 2**64))),
            _categories,
        ),
        st.tuples(st.just("read_u64"), _offsets),
        st.tuples(
            st.just("write"), _offsets,
            st.binary(min_size=0, max_size=24), _categories,
        ),
        st.tuples(st.just("read"), _offsets, st.integers(0, 24)),
        st.tuples(st.just("protect")),
        st.tuples(st.just("unprotect")),
        st.tuples(st.just("window"), st.integers(0, SIZE), st.integers(0, 32)),
        st.tuples(st.just("close")),
        st.tuples(st.just("crash")),
        st.tuples(st.just("reboot")),
    ),
    min_size=0,
    max_size=40,
)


def _run_words(region_cls, ops, accessors: bool):
    """Apply ``ops`` with the word accessors, or with the byte-path
    oracle (``write(offset, pack(v))`` / ``unpack(read(offset, 8))``).
    Outcomes keep read results and the raised error with its message."""
    region = region_cls("target", SIZE)
    region.poke(0, _SOURCE_IMAGE)
    events = _instrumented(region)
    outcomes = []
    for op in ops:
        try:
            result = None
            if op[0] == "write_u64" and accessors:
                region.write_u64(op[1], op[2], op[3])
            elif op[0] == "write_u64":
                region.write(op[1], _U64.pack(op[2]), op[3])
            elif op[0] == "read_u64" and accessors:
                result = region.read_u64(op[1])
            elif op[0] == "read_u64":
                result = _U64.unpack(region.read(op[1], 8))[0]
            elif op[0] == "write":
                region.write(op[1], op[2], op[3])
            elif op[0] == "read":
                result = region.read(op[1], op[2])
            elif op[0] == "protect":
                region.protect()
            elif op[0] == "unprotect":
                region.unprotect()
            elif op[0] == "window":
                region.open_window(op[1], op[2])
            elif op[0] == "close":
                region.close_window()
            else:  # what RioMemory.crash()/reboot() do to a region
                region._crashed = op[0] == "crash"
            outcomes.append(result)
        except (CrashedError, OutOfBoundsError, ProtectionError) as error:
            outcomes.append((type(error), str(error)))
        except struct.error:  # its wording is the interpreter's
            outcomes.append(struct.error)
    region._crashed = False
    return {
        "bytes": region.snapshot(),
        "events": events,
        "writes_observed": region.writes_observed,
        "bytes_written": region.bytes_written,
        "outcomes": outcomes,
    }


@settings(max_examples=200, deadline=None)
@given(ops=_word_ops)
def test_word_accessors_match_the_byte_path(ops):
    """``write_u64``/``read_u64`` are the byte path minus the ``bytes``
    round trip, on both backings: same bytes, counters, observer
    streams, read values and errors (type and message)."""
    oracle = _run_words(ReferenceMemoryRegion, ops, accessors=False)
    for region_cls in (MemoryRegion, ReferenceMemoryRegion):
        assert _run_words(region_cls, ops, accessors=True) == oracle


@both_regions
def test_word_store_against_a_protection_window(region_cls):
    """Open window, straddled edges, closed window: the word store
    raises exactly the byte path's ``ProtectionError``."""
    region = region_cls("target", SIZE)
    region.protect()
    region.open_window(16, 16)
    region.write_u64(16, 7)
    region.write_u64(24, 9, WriteCategory.UNDO)
    assert (region.read_u64(16), region.read_u64(24)) == (7, 9)
    for offset in (8, 12, 28, 32):  # below, straddling low/high, above
        with pytest.raises(ProtectionError) as by_bytes:
            region.write(offset, _U64.pack(1), WriteCategory.META)
        with pytest.raises(ProtectionError) as by_word:
            region.write_u64(offset, 1)
        assert str(by_word.value) == str(by_bytes.value)
    region.close_window()
    with pytest.raises(ProtectionError, match="no open window"):
        region.write_u64(16, 1)
    assert (region.writes_observed, region.bytes_written) == (2, 16)


@both_regions
@pytest.mark.parametrize("value", [-1, 2**64])
def test_word_store_rejects_values_outside_a_u64(region_cls, value):
    region = region_cls("target", SIZE)
    region.poke(0, _SOURCE_IMAGE)
    events = _instrumented(region)
    with pytest.raises(struct.error):
        region.write_u64(40, value)
    assert region.snapshot() == _SOURCE_IMAGE
    assert (region.writes_observed, region.bytes_written) == (0, 0)
    assert events == []


# -- write_run vs the per-part write loop ------------------------------

_parts = st.lists(
    st.tuples(st.binary(min_size=0, max_size=24), _categories),
    min_size=0, max_size=6,
)

#: Runs interleaved with everything that decides their lane: single
#: stores, protection windows (open, closed, straddled), a crash.
_run_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write_run"), _offsets, _parts),
        st.tuples(
            st.just("write"), _offsets,
            st.binary(min_size=0, max_size=24), _categories,
        ),
        st.tuples(st.just("protect")),
        st.tuples(st.just("unprotect")),
        st.tuples(st.just("window"), st.integers(0, SIZE), st.integers(0, 48)),
        st.tuples(st.just("close")),
        st.tuples(st.just("crash")),
        st.tuples(st.just("reboot")),
    ),
    min_size=0,
    max_size=30,
)


def _run_runs(region_cls, ops, lane: bool, observed: bool,
              one_shot: bool = False):
    """Apply ``ops`` with ``write_run`` (handed a list, or a one-shot
    iterator over it), or with its definition: one ``write`` per part
    in order, stopping at the first that raises."""
    region = region_cls("target", SIZE)
    region.poke(0, _SOURCE_IMAGE)
    events = _instrumented(region) if observed else []
    outcomes = []
    for op in ops:
        try:
            if op[0] == "write_run" and lane:
                region.write_run(op[1], iter(op[2]) if one_shot else op[2])
            elif op[0] == "write_run":
                offset = op[1]
                for data, category in op[2]:
                    region.write(offset, data, category)
                    offset += len(data)
            elif op[0] == "write":
                region.write(op[1], op[2], op[3])
            elif op[0] == "protect":
                region.protect()
            elif op[0] == "unprotect":
                region.unprotect()
            elif op[0] == "window":
                region.open_window(op[1], op[2])
            elif op[0] == "close":
                region.close_window()
            else:
                region._crashed = op[0] == "crash"
            outcomes.append(None)
        except (CrashedError, OutOfBoundsError, ProtectionError) as error:
            outcomes.append((type(error), str(error)))
    region._crashed = False
    return {
        "bytes": region.snapshot(),
        "events": events,
        "writes_observed": region.writes_observed,
        "bytes_written": region.bytes_written,
        "outcomes": outcomes,
    }


@pytest.mark.parametrize("observed", [False, True], ids=["plain", "observed"])
@settings(max_examples=200, deadline=None)
@given(ops=_run_ops)
def test_write_run_matches_the_per_part_loop(observed, ops):
    """A run is its stores: same bytes, counters, observer streams and
    the same error (type and message) after the same parts landed —
    on both backings, with and without observers, zero-length parts
    and runs that overrun either end included."""
    oracle = _run_runs(
        ReferenceMemoryRegion, ops, lane=False, observed=observed)
    for region_cls in (MemoryRegion, ReferenceMemoryRegion):
        for one_shot in (False, True):
            assert _run_runs(
                region_cls, ops, lane=True, observed=observed,
                one_shot=one_shot) == oracle


@both_regions
def test_write_run_counts_one_write_per_non_empty_part(region_cls):
    region = region_cls("target", SIZE)
    region.write_run(10, (
        (b"", WriteCategory.META), (b"head", WriteCategory.META),
        (b"", WriteCategory.UNDO), (b"pre-image", WriteCategory.UNDO),
    ))
    assert region.read(10, 13) == b"headpre-image"
    assert (region.writes_observed, region.bytes_written) == (2, 13)
    region.write_run(SIZE + 50, ((b"", WriteCategory.META),))  # no store, no error
    with pytest.raises(OutOfBoundsError):
        region.write_run(SIZE - 6, ((b"fits", WriteCategory.META),
                                    (b"not", WriteCategory.UNDO)))
    assert region.read(SIZE - 6, 6) == b"fits" + _ZERO[:2]
    assert (region.writes_observed, region.bytes_written) == (3, 17)


def test_write_run_reads_a_one_shot_iterator_once():
    """A generator whose run overruns the region: the first part lands
    and the second raises, exactly as from a list."""
    region = MemoryRegion("target", 16)
    parts = [(b"0123456789", WriteCategory.META),
             (b"abcdefghij", WriteCategory.UNDO)]
    with pytest.raises(OutOfBoundsError):
        region.write_run(0, (part for part in parts))
    assert region.read(0, 16) == b"0123456789" + bytes(6)
    assert (region.writes_observed, region.bytes_written) == (1, 10)


# -- engine-level: AccessProfile snapshots ----------------------------

MB = 1024 * 1024
_CONFIG = EngineConfig(db_bytes=4 * MB, log_bytes=128 * 1024)


def _measure_engine(seed: int):
    system = PassiveReplicatedSystem("v1", _CONFIG)
    workload = DebitCreditWorkload(_CONFIG.db_bytes, seed=seed)
    workload.setup(system)
    system.sync_initial()
    result = run_workload(system, workload, 40, warmup=5, verify=True)
    return {
        "counters": vars(result.counters).copy(),
        "working_set": dict(result.profile.working_set_bytes),
        "random_lines": dict(result.profile.random_lines),
        "sequential_bytes": dict(result.profile.sequential_bytes),
    }


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_engine_access_profile_identical_across_backings(seed):
    """A full mirrored engine run records the same AccessProfile
    snapshot and counters over the shipped region and over the
    bytearray reference (substituted where every node allocates:
    ``RioMemory.create_region``)."""
    shipped = _measure_engine(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rio, "MemoryRegion", ReferenceMemoryRegion)
        reference = _measure_engine(seed)
    assert shipped == reference


def test_numpy_backend_requires_numpy():
    pytest.importorskip("numpy")
