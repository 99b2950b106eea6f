"""Property-based equivalence tests for the deferred store pipeline.

The pipeline rests on two claims:

* ``write_batch`` is observably identical to feeding the reference
  write-buffer model (``tests/oracles/writebuffer_reference.py``) one
  store at a time, and
* a barrier-terminated store schedule that began with empty buffers
  drains into a packet sequence that is a pure function of its
  canonicalized shape, so the replay cache may serve it from memory.

These tests drive both claims with randomized store schedules over
randomized buffer geometries. A third property holds the interface's
arithmetic fragmented transmit equal to its per-word loop.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.fastpath.replay import PacketReplayCache
from repro.hardware.writebuffer import WriteBufferModel
from repro.memory.region import MemoryRegion, WriteCategory
from repro.san.memory_channel import MemoryChannelInterface
from repro.san.packets import PacketTrace
from tests.oracles.replay_key_reference import (
    canonical_key as reference_canonical_key,
)
from tests.oracles.writebuffer_reference import ReferenceWriteBufferModel

geometries = st.tuples(
    st.integers(1, 8),                      # num_buffers
    st.sampled_from((4, 8, 16, 32, 64)),    # block_bytes
)

stores = st.lists(
    st.tuples(st.integers(0, 4096), st.integers(1, 100)),
    min_size=0, max_size=60,
)

#: A schedule interleaving stores with barriers: True = barrier.
schedule = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 4096), st.integers(1, 100)),
        st.just(True),
    ),
    min_size=0, max_size=60,
)


def _run_per_store(ops, num_buffers, block_bytes):
    """The oracle: the reference model, one ``write`` per store."""
    sizes = []
    model = ReferenceWriteBufferModel(
        num_buffers, block_bytes, on_packet=sizes.append)
    for op in ops:
        if op is True:
            model.barrier()
        else:
            model.write(*op)
    model.barrier()
    return sizes, model


def _run_batched(ops, num_buffers, block_bytes):
    """Same schedule through write_batch, splitting at barriers."""
    sizes = []
    model = WriteBufferModel(num_buffers, block_bytes, on_packet=sizes.append)
    batch = []
    for op in ops:
        if op is True:
            model.write_batch(batch)
            batch = []
            model.barrier()
        else:
            batch.append(op)
    model.write_batch(batch)
    model.barrier()
    return sizes, model


@given(ops=schedule, geometry=geometries)
@settings(max_examples=150, deadline=None)
def test_write_batch_matches_per_store_writes(ops, geometry):
    num_buffers, block_bytes = geometry
    slow_sizes, slow = _run_per_store(ops, num_buffers, block_bytes)
    fast_sizes, fast = _run_batched(ops, num_buffers, block_bytes)
    assert fast_sizes == slow_sizes
    assert fast.packets_emitted == slow.packets_emitted
    assert fast.bytes_emitted == slow.bytes_emitted


@given(ops=stores, geometry=geometries)
@settings(max_examples=150, deadline=None)
def test_replay_cache_matches_simulation(ops, geometry):
    """A cached drain equals the per-store simulation, on the miss
    (first call simulates) and on the hit (second call replays)."""
    num_buffers, block_bytes = geometry
    slow_sizes, slow = _run_per_store(ops, num_buffers, block_bytes)
    cache = PacketReplayCache()
    for expected_hits in (0, 1):
        sizes, total_bytes, counts = cache.drain_sizes(
            ops, num_buffers, block_bytes)
        assert list(sizes) == slow_sizes
        assert total_bytes == slow.bytes_emitted
        assert counts == tuple(Counter(slow_sizes).items())
        assert cache.hits == expected_hits
    assert cache.misses == 1


@given(
    entries=st.lists(
        st.tuples(st.integers(0, 200), st.lists(st.integers(0, 12), max_size=6),
                  st.booleans()),
        max_size=12),
    geometry=geometries,
)
@settings(max_examples=150, deadline=None)
def test_a_run_entry_keys_and_drains_as_its_stores(entries, geometry):
    """A run entry ``(address, part_lengths)`` is keyed as its stores
    one by one: the schedule with its runs split hits the entry's cache
    line, and both drain as the per-store simulation does."""
    num_buffers, block_bytes = geometry
    batch, split = [], []
    for address, parts, as_run in entries:
        if as_run:
            batch.append((address, tuple(parts)))
        for length in parts:
            if not as_run:
                batch.append((address, length))
            split.append((address, length))
            address += length
    key = PacketReplayCache.canonical_key
    assert key(batch, num_buffers, block_bytes) == key(split, num_buffers, block_bytes)
    slow_sizes, slow = _run_per_store(split, num_buffers, block_bytes)
    cache = PacketReplayCache()
    for expected_hits, ops in ((0, batch), (1, split)):
        sizes, total_bytes, _counts = cache.drain_sizes(
            ops, num_buffers, block_bytes)
        assert list(sizes) == slow_sizes
        assert total_bytes == slow.bytes_emitted
        assert cache.hits == expected_hits


@given(
    ops=stores,
    geometry=geometries,
    shift_blocks=st.integers(0, 1 << 20),
)
@settings(max_examples=100, deadline=None)
def test_canonical_key_is_translation_invariant(ops, geometry, shift_blocks):
    """Shifting every address by a whole number of blocks renames the
    blocks consistently, so the canonical key — and therefore the
    cached packet sequence — must not change."""
    num_buffers, block_bytes = geometry
    shift = shift_blocks * block_bytes
    shifted = [(address + shift, length) for address, length in ops]
    key = PacketReplayCache.canonical_key(ops, num_buffers, block_bytes)
    assert key == PacketReplayCache.canonical_key(shifted, num_buffers, block_bytes)
    base_sizes, _model = _run_per_store(ops, num_buffers, block_bytes)
    shifted_sizes, _model = _run_per_store(shifted, num_buffers, block_bytes)
    assert shifted_sizes == base_sizes


#: Pending entries as the interface queues them: a store (zero-length
#: included) or a run entry of parts (zero-length parts included),
#: inside a block or across block edges.
pending_entries = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 4096), st.integers(0, 100)),
        st.tuples(st.integers(0, 4096),
                  st.lists(st.integers(0, 40), max_size=5).map(tuple)),
    ),
    max_size=40,
)


@given(ops=pending_entries, geometry=geometries)
@settings(max_examples=200, deadline=None)
def test_canonical_key_equals_the_per_block_oracle(ops, geometry):
    """The shift-and-mask key is the per-block loop's key, byte for
    byte, so no cache entry and no hit count can move."""
    num_buffers, block_bytes = geometry
    assert PacketReplayCache.canonical_key(ops, num_buffers, block_bytes) == (
        reference_canonical_key(ops, num_buffers, block_bytes))


@given(ops=stores, geometry=geometries)
@settings(max_examples=100, deadline=None)
def test_account_replayed_matches_write_batch_statistics(ops, geometry):
    num_buffers, block_bytes = geometry
    sizes, reference = _run_batched(ops, num_buffers, block_bytes)
    replayed_sizes = []
    model = WriteBufferModel(
        num_buffers, block_bytes, on_packet=replayed_sizes.append
    )
    model.account_replayed(
        sizes, reference.bytes_emitted, tuple(Counter(sizes).items()))
    assert replayed_sizes == sizes
    assert model.packets_emitted == reference.packets_emitted
    assert model.bytes_emitted == reference.bytes_emitted


@given(ops=stores, geometry=geometries)
@settings(max_examples=100, deadline=None)
def test_a_trace_sink_takes_a_replay_as_its_counts(ops, geometry):
    """A replay credited to a packet trace leaves the histogram — its
    key order included — that recording every packet leaves, in one
    ``record_counts`` call."""
    num_buffers, block_bytes = geometry
    sizes, reference = _run_batched(ops, num_buffers, block_bytes)
    per_packet = PacketTrace()
    for size in sizes:
        per_packet.record(size)
    trace = PacketTrace()
    calls = []
    record_counts = trace.record_counts
    trace.record_counts = lambda counts: (calls.append(counts),
                                          record_counts(counts))
    model = WriteBufferModel(num_buffers, block_bytes, on_packet=trace.record)
    model.account_replayed(
        sizes, reference.bytes_emitted, tuple(Counter(sizes).items()))
    assert list(trace.histogram.items()) == list(per_packet.histogram.items())
    assert len(calls) == 1
    assert model.packets_emitted == reference.packets_emitted


# -- the arithmetic fragmented lane vs the per-word loop ----------------

_REMOTE_BYTES = 160


def _run_fragmented(geometry, offset, data, category, loop,
                    reference_buffers):
    """One ``write_uncoalesced`` on a fresh interface. ``loop`` hangs a
    do-nothing observer on the remote, which is enough to send the run
    down the per-word loop; ``reference_buffers`` swaps the reference
    write-buffer model in under the interface. Returns everything the
    outside can see, plus how many words went through ``mapping.write``."""
    num_buffers, block_bytes = geometry
    remote = MemoryRegion("remote", _REMOTE_BYTES)
    if loop:
        remote.add_observer(lambda offset, length, category: None)
    interface = MemoryChannelInterface("sender")
    mapping = interface.map_remote(remote)
    sizes = []
    record = interface.write_buffer.on_packet
    interface.write_buffer = (
        ReferenceWriteBufferModel if reference_buffers else WriteBufferModel
    )(num_buffers, block_bytes)

    def on_packet(size):
        sizes.append(size)
        record(size)

    interface.write_buffer.on_packet = on_packet
    per_word = []
    write = mapping.write
    mapping.write = lambda *args: (per_word.append(1), write(*args))
    mapping.write_uncoalesced(offset, data, category)
    seen = {
        "sizes": sizes,
        "histogram": interface.trace.histogram,
        "io_stores": interface.io_stores,
        "bytes_by_category": interface.bytes_by_category,
        "mapping.bytes_by_category": mapping.bytes_by_category,
        "mapping.bytes_sent": mapping.bytes_sent,
        "remote": remote.snapshot(),
        "writes_observed": remote.writes_observed,
        "bytes_written": remote.bytes_written,
        "open_buffers": interface.write_buffer.open_buffers,
        "pending": list(interface._pending),
    }
    return seen, len(per_word)


#: The word each store of a fragmented run writes.
_WORD_BYTES = 4


@given(
    geometry=st.tuples(
        st.sampled_from((1, 2, 6)), st.sampled_from((2, 4, 8, 32))),
    offset=st.integers(0, 70),
    data=st.binary(min_size=1, max_size=90),
    category=st.sampled_from(list(WriteCategory)),
    reference_buffers=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_fragmented_lane_matches_per_word_loop(
    geometry, offset, data, category, reference_buffers
):
    """Unaligned offsets, tail words and block-straddling words: the
    arithmetic lane leaves what the per-word loop leaves — packet
    sizes *in order* included — over either write-buffer model, and
    both agree with the reference model drained after every word."""
    lane, lane_words = _run_fragmented(
        geometry, offset, data, category, False, reference_buffers)
    loop, loop_words = _run_fragmented(
        geometry, offset, data, category, True, reference_buffers)
    word_bytes = _WORD_BYTES
    assert lane == loop
    words = [
        (0x8000_0000 + offset + cursor, min(word_bytes, len(data) - cursor))
        for cursor in range(0, len(data), word_bytes)
    ]
    drained = []
    oracle = ReferenceWriteBufferModel(*geometry, on_packet=drained.append)
    for address, length in words:
        oracle.write(address, length)
        oracle.barrier()
    assert lane["sizes"] == drained
    assert loop_words == len(words)
    # A word can only cover a whole block (and so overtake the open
    # partial block before it) when blocks are narrower than words and
    # a second buffer exists; that geometry keeps the loop.
    num_buffers, block_bytes = geometry
    arithmetic = block_bytes >= word_bytes or num_buffers == 1
    assert lane_words == (0 if arithmetic else len(words))


def test_replay_cache_evicts_its_oldest_schedule_past_its_bound(monkeypatch):
    from repro.fastpath import replay

    monkeypatch.setattr(replay, "_MAX_ENTRIES", 2)
    cache = PacketReplayCache()
    schedules = [[(0, length)] for length in (4, 8, 12)]
    for ops in schedules:
        cache.drain_sizes(ops, 6, 32)
    cache.drain_sizes(schedules[2], 6, 32)  # the newest stays cached
    assert (cache.hits, cache.misses) == (1, 3)
    cache.drain_sizes(schedules[0], 6, 32)  # the oldest was evicted
    assert (cache.hits, cache.misses) == (1, 4)
