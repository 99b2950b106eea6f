"""Memory Channel semantics: write-through, write doubling, loopback,
packet accounting, crash behaviour."""

import pytest

from repro import fastpath
from repro.errors import CrashedError, NotMappedError, ProtectionError
from repro.memory.region import MemoryRegion, WriteCategory
from repro.san.memory_channel import (
    DoubledWrite,
    LoopbackBuffer,
    MemoryChannelInterface,
)


def make_pair(size=1024):
    remote = MemoryRegion("remote", size)
    interface = MemoryChannelInterface("sender")
    mapping = interface.map_remote(remote)
    return interface, mapping, remote


def test_write_through_deposits_into_remote_memory():
    _interface, mapping, remote = make_pair()
    mapping.write(10, b"hello")
    assert remote.read(10, 5) == b"hello"


def test_remote_cpu_not_involved():
    """Delivery must not require any backup-side action: the data is
    simply present after the sender's write (DMA semantics)."""
    _interface, mapping, remote = make_pair()
    mapping.write(0, b"x")
    # No polling, no apply call — the byte is just there.
    assert remote.read(0, 1) == b"x"


def test_out_of_window_write_rejected():
    _interface, mapping, _remote = make_pair(64)
    with pytest.raises(NotMappedError):
        mapping.write(60, b"toolong")
    with pytest.raises(NotMappedError):
        mapping.write(-1, b"x")


def test_traffic_accounting_by_category():
    interface, mapping, _remote = make_pair()
    mapping.write(0, b"abcd", WriteCategory.META)
    mapping.write(4, b"ef", WriteCategory.UNDO)
    mapping.write(6, b"gh", WriteCategory.UNDO)
    assert interface.bytes_by_category[WriteCategory.META] == 4
    assert interface.bytes_by_category[WriteCategory.UNDO] == 4
    assert interface.bytes_sent == 8
    assert mapping.bytes_sent == 8


def test_packet_formation_coalesces_contiguous_writes():
    interface, mapping, _remote = make_pair()
    for offset in range(0, 32, 4):
        mapping.write(offset, b"\x01" * 4)
    interface.barrier()
    assert interface.trace.histogram == {32: 1}


def test_scattered_writes_make_small_packets():
    interface, mapping, _remote = make_pair()
    for offset in (0, 100, 200, 300):
        mapping.write(offset, b"\x01" * 4)
    interface.barrier()
    assert interface.trace.histogram == {4: 4}


def test_uncoalesced_write_emits_word_packets():
    interface, mapping, remote = make_pair()
    mapping.write_uncoalesced(0, b"\x07" * 20)
    assert remote.read(0, 20) == b"\x07" * 20
    assert interface.trace.histogram == {4: 5}


def _count_per_word_transmits(interface):
    """How many words of a fragmented run go through ``_transmit``
    (the per-word loop) rather than the arithmetic lane."""
    words = []
    transmit = interface._transmit
    interface._transmit = lambda *args: (words.append(args[2]), transmit(*args))
    return words


def test_uncoalesced_run_from_a_drained_interface_is_computed_whole():
    interface, mapping, remote = make_pair()
    words = _count_per_word_transmits(interface)
    mapping.write_uncoalesced(30, b"\x07" * 10, WriteCategory.UNDO)
    assert words == []
    assert remote.read(30, 10) == b"\x07" * 10
    # words [30,34) [34,38) [38,40): the first straddles block 0 | 1
    assert interface.trace.histogram == {2: 3, 4: 1}
    assert interface.io_stores == 3
    assert (remote.writes_observed, remote.bytes_written) == (3, 10)
    assert interface.bytes_by_category == {WriteCategory.UNDO: 10}
    assert mapping.bytes_sent == 10


def test_uncoalesced_word_covering_a_block_overtakes_the_open_one():
    """Blocks narrower than the word, a second buffer: the fully
    covered middle block leaves at once, the partial block opened
    before it only at the drain. Not address order, so this geometry
    stays on the per-word loop."""
    remote = MemoryRegion("remote", 64)
    interface = MemoryChannelInterface(
        "sender", write_buffers=2, write_buffer_bytes=4)
    mapping = interface.map_remote(remote)
    sizes = []
    interface.write_buffer.on_packet = sizes.append
    words = _count_per_word_transmits(interface)
    mapping.write_uncoalesced(2, b"\x01" * 8, word_bytes=8)
    assert sizes == [4, 2, 2]
    assert len(words) == 1


def test_uncoalesced_run_takes_the_loop_when_the_remote_is_observed():
    interface, mapping, remote = make_pair()
    seen = []
    remote.add_fast_observer(
        lambda offset, length, category: seen.append((offset, length)))
    words = _count_per_word_transmits(interface)
    mapping.write_uncoalesced(0, b"\x07" * 10)
    assert words == [b"\x07" * 4, b"\x07" * 4, b"\x07" * 2]
    assert seen == [(0, 4), (4, 4), (8, 2)]
    assert interface.trace.histogram == {4: 2, 2: 1}


def test_uncoalesced_run_into_a_protected_remote_raises_at_its_first_word():
    interface, mapping, remote = make_pair()
    remote.protect()
    with pytest.raises(ProtectionError):
        mapping.write_uncoalesced(0, b"\x07" * 8)
    assert interface.io_stores == 1  # issued, then refused by the remote
    assert remote.snapshot() == bytes(remote.size)
    remote.open_window(0, 8)
    mapping.write_uncoalesced(0, b"\x07" * 8)
    assert remote.read(0, 8) == b"\x07" * 8


def test_uncoalesced_run_behind_deferred_stores_takes_the_loop():
    with fastpath.forced():
        interface, mapping, _remote = make_pair()
        mapping.write(64, b"\x01" * 4)
        assert interface._pending
        words = _count_per_word_transmits(interface)
        mapping.write_uncoalesced(0, b"\x07" * 8)
        assert len(words) == 2
        # the deferred store drains with the first word, ahead of it
        assert interface.trace.histogram == {4: 3}
        assert not interface._pending


def test_uncoalesced_run_behind_open_buffers_takes_the_loop():
    with fastpath.disabled():
        interface, mapping, _remote = make_pair()
        mapping.write(64, b"\x01" * 2)
        assert interface.write_buffer.open_buffers == 1
        words = _count_per_word_transmits(interface)
        mapping.write_uncoalesced(0, b"\x07" * 8)
        assert len(words) == 2
        assert interface.trace.histogram == {2: 1, 4: 2}


def test_uncoalesced_run_on_a_crashed_interface_raises():
    interface, mapping, remote = make_pair()
    interface.crash()
    with pytest.raises(CrashedError):
        mapping.write_uncoalesced(0, b"\x07" * 8)
    assert interface.io_stores == 0
    assert remote.writes_observed == 0


def test_uncoalesced_run_past_the_window_sends_the_words_that_fit():
    interface, mapping, remote = make_pair(64)
    with pytest.raises(NotMappedError):
        mapping.write_uncoalesced(58, b"\x07" * 8)
    assert interface.io_stores == 1
    assert remote.read(58, 6) == b"\x07" * 4 + b"\x00" * 2
    other = MemoryChannelInterface("other")
    with pytest.raises(NotMappedError):
        other._transmit_uncoalesced(mapping, 0, b"\x07" * 8, WriteCategory.META, 4)


def test_distinct_mappings_never_share_packets():
    remote_a = MemoryRegion("a", 64)
    remote_b = MemoryRegion("b", 64)
    interface = MemoryChannelInterface("sender")
    map_a = interface.map_remote(remote_a)
    map_b = interface.map_remote(remote_b)
    map_a.write(0, b"\x01" * 16)
    map_b.write(0, b"\x01" * 16)
    interface.barrier()
    assert interface.trace.histogram == {16: 2}


def test_io_store_count():
    interface, mapping, _remote = make_pair()
    mapping.write(0, b"1234")
    mapping.write(8, b"1234")
    assert interface.io_stores == 2


def test_crashed_interface_rejects_writes():
    interface, mapping, _remote = make_pair()
    interface.crash()
    with pytest.raises(CrashedError):
        mapping.write(0, b"x")
    interface.reboot()
    mapping.write(0, b"x")


def test_unmapped_mapping_rejected():
    interface_a, mapping, _remote = make_pair()
    interface_b = MemoryChannelInterface("other")
    with pytest.raises(NotMappedError):
        interface_b._transmit(mapping, 0, b"x", WriteCategory.MODIFIED)


def test_reset_stats():
    interface, mapping, _remote = make_pair()
    mapping.write(0, b"\x01" * 8)
    interface.barrier()
    interface.reset_stats()
    assert interface.bytes_sent == 0
    assert interface.trace.packets == 0
    assert mapping.bytes_sent == 0


def test_link_time_accumulates():
    interface, mapping, _remote = make_pair()
    assert interface.link_time_us() == 0.0
    mapping.write(0, b"\x01" * 32)
    interface.barrier()
    assert interface.link_time_us() > 0.0


def test_doubled_write_keeps_copies_identical():
    local = MemoryRegion("local", 256)
    remote = MemoryRegion("remote", 256)
    interface = MemoryChannelInterface("sender")
    doubled = DoubledWrite(local, interface.map_remote(remote))
    doubled.write(5, b"twice")
    assert local.read(5, 5) == b"twice"
    assert remote.read(5, 5) == b"twice"
    assert doubled.read(5, 5) == b"twice"  # reads come from the local copy


def test_loopback_delay_breaks_read_your_writes():
    """Loopback mode applies I/O writes to the local copy only after a
    delay — the hazard that makes write doubling the practical choice
    (Section 2.3)."""
    local = MemoryRegion("local", 64)
    loopback = LoopbackBuffer(local)
    loopback.enqueue(0, b"new!")
    # The processor does NOT see its own last write yet.
    assert local.read(0, 4) == b"\x00" * 4
    assert loopback.pending_writes == 1
    loopback.deliver()
    assert local.read(0, 4) == b"new!"


def test_loopback_partial_delivery():
    local = MemoryRegion("local", 64)
    loopback = LoopbackBuffer(local)
    loopback.enqueue(0, b"a")
    loopback.enqueue(1, b"b")
    assert loopback.deliver(1) == 1
    assert local.read(0, 2) == b"a\x00"
    assert loopback.deliver() == 1
    assert local.read(0, 2) == b"ab"
