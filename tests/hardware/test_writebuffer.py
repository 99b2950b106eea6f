"""The 6x32-byte write-buffer coalescing model — the mechanism behind
Figure 1 and the logging-vs-mirroring result."""

import pytest

from repro.hardware.writebuffer import WriteBufferModel
from tests.oracles.writebuffer_reference import packets_for_stores


def test_contiguous_stores_coalesce_to_full_packet():
    sizes = packets_for_stores([(0, 4), (4, 4), (8, 4), (12, 4),
                                (16, 4), (20, 4), (24, 4), (28, 4)])
    assert sizes == [32]


def test_full_block_drains_immediately():
    emitted = []
    model = WriteBufferModel(on_packet=emitted.append)
    model.write_batch([(0, 32)])
    assert emitted == [32]  # no barrier needed


def test_scattered_words_stay_small():
    # 4-byte stores to distinct blocks: no coalescing possible.
    sizes = packets_for_stores([(0, 4), (100, 4), (200, 4), (300, 4)])
    assert sizes == [4, 4, 4, 4]


def test_large_write_splits_at_block_boundaries():
    sizes = packets_for_stores([(0, 80)])
    assert sizes == [32, 32, 16]


def test_unaligned_write_splits_correctly():
    sizes = packets_for_stores([(30, 8)])  # spans blocks [0,32) and [32,64)
    assert sorted(sizes) == [2, 6]


def test_rewriting_same_bytes_does_not_grow_packet():
    emitted = []
    model = WriteBufferModel(on_packet=emitted.append)
    model.write_batch([(0, 8)])
    model.write_batch([(0, 8)])
    model.write_batch([(0, 8)])
    model.barrier()
    assert emitted == [8]


def test_fifo_displacement_at_capacity():
    emitted = []
    model = WriteBufferModel(num_buffers=2, on_packet=emitted.append)
    model.write_batch([(0, 4)])     # block 0
    model.write_batch([(100, 4)])   # block 3
    model.write_batch([(200, 4)])   # block 6 -> displaces block 0
    assert emitted == [4]
    model.barrier()
    assert emitted == [4, 4, 4]


def test_barrier_flushes_everything():
    emitted = []
    model = WriteBufferModel(on_packet=emitted.append)
    model.write_batch([(0, 10)])
    model.write_batch([(64, 6)])
    model.barrier()
    assert sorted(emitted) == [6, 10]
    model.barrier()  # idempotent
    assert len(emitted) == 2


def test_packet_and_byte_totals():
    model = WriteBufferModel()
    model.write_batch([(0, 32)])
    model.write_batch([(100, 4)])
    model.barrier()
    assert model.packets_emitted == 2
    assert model.bytes_emitted == 36


def test_reset_clears_state():
    model = WriteBufferModel()
    model.write_batch([(0, 8)])
    model.reset()
    model.barrier()
    assert model.packets_emitted == 0


def test_zero_length_write_is_noop():
    model = WriteBufferModel()
    model.write_batch([(0, 0)])
    model.barrier()
    assert model.packets_emitted == 0


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        WriteBufferModel(num_buffers=0)
    with pytest.raises(ValueError):
        WriteBufferModel(block_bytes=24)


def test_interleaved_streams_coalesce_independently():
    """A log-like stream and a scattered stream share the buffers: the
    log still forms large packets."""
    emitted = []
    model = WriteBufferModel(on_packet=emitted.append)
    log = 0
    for i in range(8):
        model.write_batch([(log, 4)])        # sequential log stream
        log += 4
        model.write_batch([(1000 + 64 * i, 4)])  # scattered stores
    model.barrier()
    # The log block accumulates until FIFO displacement (at 6 distinct
    # blocks) evicts it — still far larger than any scattered packet.
    assert max(emitted) >= 24
    assert emitted.count(4) >= 6


def test_barrier_between_each_store_prevents_coalescing():
    sizes = packets_for_stores(
        [(0, 4), (4, 4), (8, 4)], barrier_between=True
    )
    assert sizes == [4, 4, 4]
