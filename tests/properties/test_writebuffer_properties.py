"""Property-based tests of the write-buffer model: conservation of
bytes, packet-size bounds, determinism — and, store for store, the
same packets as the per-block loop it replaced
(``tests/oracles/writebuffer_reference.py``)."""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.hardware.writebuffer import WriteBufferModel
from tests.oracles.writebuffer_reference import (
    ReferenceWriteBufferModel,
    packets_for_stores,
)

stores = st.lists(
    st.tuples(st.integers(0, 2000), st.integers(1, 100)),
    min_size=0, max_size=50,
)


@given(stores=stores)
@settings(max_examples=100, deadline=None)
def test_bytes_conserved(stores):
    """Emitted packet bytes equal the distinct bytes written (rewrites
    of the same byte while buffered coalesce)."""
    model = WriteBufferModel()
    touched = set()
    emitted_plus_open = 0
    for address, length in stores:
        model.write_batch([(address, length)])
        touched.update(range(address, address + length))
    model.barrier()
    # Every byte is emitted at most once per residency; with no
    # barriers in between, total emitted is at most the bytes written
    # and at least the number of distinct bytes (rewrites of a drained
    # byte re-emit).
    total_written = sum(length for _address, length in stores)
    assert len(touched) <= model.bytes_emitted <= max(total_written, 0) or not stores


@given(stores=stores)
@settings(max_examples=100, deadline=None)
def test_packet_sizes_bounded_by_block(stores):
    sizes = packets_for_stores(stores)
    assert all(1 <= size <= 32 for size in sizes)


@given(stores=stores)
@settings(max_examples=50, deadline=None)
def test_deterministic(stores):
    assert packets_for_stores(stores) == packets_for_stores(stores)


@given(start=st.integers(0, 64), length=st.integers(1, 500))
@settings(max_examples=100, deadline=None)
def test_single_contiguous_write_emits_exact_bytes(start, length):
    sizes = packets_for_stores([(start, length)])
    assert sum(sizes) == length
    # At most two partial packets (the unaligned ends).
    assert sum(1 for size in sizes if size < 32) <= 2


@given(
    words=st.integers(1, 8),
    blocks=st.integers(1, 10),
)
@settings(max_examples=50, deadline=None)
def test_strided_pattern_matches_figure1_construction(words, blocks):
    """Writing `words` contiguous words at the start of each 32-byte
    block yields exactly one packet of words*4 bytes per block — the
    paper's Figure 1 test program."""
    pattern = []
    for block in range(blocks):
        for word in range(words):
            pattern.append((block * 32 + word * 4, 4))
    sizes = packets_for_stores(pattern)
    assert sizes == [words * 4] * blocks


# -- the model against its per-block-loop oracle ------------------------

_geometries = st.tuples(
    st.integers(1, 8),                    # num_buffers
    st.sampled_from((4, 8, 16, 32, 64)),  # block_bytes
)

#: A schedule interleaving stores with barriers: True = barrier, and
#: ``("next", n)`` = ``n`` bytes starting where the previous store
#: ended — adjacency is what ``write_batch`` coalesces on, and random
#: addresses alone almost never produce it. Small windows keep stores
#: landing on each other's blocks (the mid-block merge trap).
_schedule = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 4096), st.integers(1, 300)),
        st.tuples(st.integers(0, 40), st.integers(1, 12)),
        st.tuples(st.just("next"), st.integers(1, 12)),
        st.just(True),
    ),
    min_size=0, max_size=60,
)


def _drive(model, ops, batched: bool):
    batch = []
    end = 0
    for op in ops:
        if op is True:
            if batched and batch:
                model.write_batch(batch)
                batch.clear()
            model.barrier()
            continue
        if op[0] == "next":
            op = (end, op[1])
        end = op[0] + op[1]
        if batched:
            batch.append(op)
        else:
            model.write_batch([op])
    if batched and batch:
        model.write_batch(batch)
    model.barrier()


@settings(max_examples=100, deadline=None)
@given(ops=_schedule, geometry=_geometries)
def test_model_matches_reference(ops, geometry):
    """Store-for-store: the model emits the same packet sequence,
    histogram and open-buffer state as the reference."""
    num_buffers, block_bytes = geometry
    ref_sizes, sizes = [], []
    ref = ReferenceWriteBufferModel(
        num_buffers, block_bytes, on_packet=ref_sizes.append)
    model = WriteBufferModel(num_buffers, block_bytes, on_packet=sizes.append)
    _drive(ref, ops, batched=False)
    _drive(model, ops, batched=False)
    assert sizes == ref_sizes
    assert model.packets_emitted == ref.packets_emitted
    assert model.bytes_emitted == ref.bytes_emitted
    assert model.open_buffers == ref.open_buffers


@settings(max_examples=100, deadline=None)
@given(ops=_schedule, geometry=_geometries)
# The mid-block merge trap: (3,4) completes block 1 between the pair,
# so the adjacent (7,4) reopens it; merged into (3,8) it would not.
@example(ops=[(5, 3), (3, 4), ("next", 4)], geometry=(2, 4))
def test_batch_matches_reference_per_store(ops, geometry):
    """The batch entry point (run-coalescing drain) against the
    reference driven one store at a time."""
    num_buffers, block_bytes = geometry
    ref_sizes, sizes = [], []
    ref = ReferenceWriteBufferModel(
        num_buffers, block_bytes, on_packet=ref_sizes.append)
    model = WriteBufferModel(num_buffers, block_bytes, on_packet=sizes.append)
    _drive(ref, ops, batched=False)
    _drive(model, ops, batched=True)
    assert sizes == ref_sizes
    assert model.open_buffers == ref.open_buffers


# -- run entries against the reference fed store by store ------------------

#: A stream of store-pipeline entries. ``frame`` is a redo-ring-shaped
#: run entry at the ring cursor (parts may be empty) followed by the
#: 8-byte producer-pointer word at address 0; ``run`` and ``store``
#: land anywhere in a small window, overlapping buffered blocks;
#: ``rewind`` moves the ring cursor back (never below the pointer
#: word); ``trap`` buffers all of a block but a gap of ``k`` bytes,
#: then issues the gap and further parts end to end from it — as one
#: run entry or as single stores — so the gap's store completes the
#: block at a junction (the merge trap, at any offset); ``flush`` hands
#: the batch so far to ``write_batch`` without draining, ``barrier``
#: drains.
#: Short parts and a narrow window dominate: a junction the rule must
#: refuse needs a nearly full block that an early part completes.
_parts = st.lists(st.one_of(st.integers(0, 3), st.integers(0, 12)), max_size=8)
_window = st.one_of(st.integers(0, 16), st.integers(0, 64))
_entry_ops = st.lists(
    st.one_of(
        st.tuples(st.just("frame"), _parts),
        st.tuples(st.just("run"), _window, _parts),
        st.tuples(st.just("store"), _window, st.integers(0, 12)),
        st.tuples(st.just("rewind"), st.integers(0, 40)),
        st.tuples(st.just("trap"), _window, st.integers(1, 4), _parts,
                  st.booleans()),
        st.just(("flush",)),
        st.just(("barrier",)),
    ),
    max_size=40,
)


def _open_masks(model):
    """The open buffers as ``(block, written mask)`` in FIFO order."""
    if isinstance(model, ReferenceWriteBufferModel):
        return [(block, buffer.written) for block, buffer in model._open.items()]
    return list(model._open.items())


@settings(max_examples=300, deadline=None)
@given(
    ops=_entry_ops,
    geometry=st.tuples(st.sampled_from((1, 2, 6)), st.sampled_from((4, 8, 32))),
)
# The merge trap, as single stores and with the adjacent pair issued
# as one run entry: both must drain as the reference does, 4, 1, 1, 3.
@example(ops=[("store", 5, 3), ("store", 3, 4), ("store", 7, 4)], geometry=(2, 4))
@example(ops=[("store", 5, 3), ("run", 3, [4, 4])], geometry=(2, 4))
# The rule's edge: the highest buffered byte is the entry's first
# junction, one byte in and one byte before its end.
@example(ops=[("store", 0, 2), ("store", 3, 1), ("run", 2, [1, 1])],
         geometry=(2, 4))
def test_run_entries_match_the_reference_store_by_store(ops, geometry):
    """``write_batch`` over single stores mixed with run entries emits
    the packets, in order, and leaves the open buffers (block and mask,
    FIFO order) that the reference shows fed one store at a time —
    after every non-draining flush as well as at the end."""
    num_buffers, block_bytes = geometry
    ref_sizes, sizes = [], []
    ref = ReferenceWriteBufferModel(
        num_buffers, block_bytes, on_packet=ref_sizes.append)
    model = WriteBufferModel(num_buffers, block_bytes, on_packet=sizes.append)
    batch = []
    cursor = 8

    def issue(address, lengths):
        batch.append((address, tuple(lengths)))
        for length in lengths:
            ref.write(address, length)
            address += length

    for op in ops:
        if op[0] == "frame":
            issue(cursor, op[1])
            cursor += sum(op[1])
            batch.append((0, 8))
            ref.write(0, 8)
        elif op[0] == "run":
            issue(op[1], op[2])
        elif op[0] == "store":
            batch.append((op[1], op[2]))
            ref.write(op[1], op[2])
        elif op[0] == "rewind":
            cursor = max(8, cursor - op[1])
        elif op[0] == "trap":
            _, address, gap, parts, as_run = op
            base = address - address % block_bytes
            gap = min(gap, base + block_bytes - address)
            for start, end in ((base, address), (address + gap, base + block_bytes)):
                batch.append((start, end - start))
                ref.write(start, end - start)
            if as_run:
                issue(address, [gap] + parts)
            else:
                for length in [gap] + parts:
                    batch.append((address, length))
                    ref.write(address, length)
                    address += length
        else:
            model.write_batch(batch)
            batch.clear()
            if op[0] == "barrier":
                model.barrier()
                ref.barrier()
            assert sizes == ref_sizes
            assert _open_masks(model) == _open_masks(ref)
    model.write_batch(batch)
    assert sizes == ref_sizes
    assert _open_masks(model) == _open_masks(ref)
    model.barrier()
    ref.barrier()
    assert sizes == ref_sizes
