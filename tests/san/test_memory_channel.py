"""Memory Channel semantics: write-through, write doubling, loopback,
packet accounting, crash behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CrashedError, NotMappedError, ProtectionError, ReproError
from repro.hardware.writebuffer import WriteBufferModel
from repro.memory.region import MemoryRegion, WriteCategory
from repro.san import memory_channel
from repro.san.memory_channel import (
    DoubledWrite,
    LoopbackBuffer,
    MemoryChannelInterface,
)
from tests.oracles.region_reference import ReferenceMemoryRegion
from tests.oracles.writebuffer_reference import ReferenceWriteBufferModel


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


@pytest.mark.parametrize("word_bytes", [0, -4])
def test_uncoalesced_rejects_a_non_positive_word_size(word_bytes):
    # -4 used to return silently having stored nothing.
    interface, mapping, remote = make_pair()
    with pytest.raises(ValueError, match="word_bytes"):
        mapping.write_uncoalesced(0, b"\x07" * 10, word_bytes=word_bytes)
    assert remote.read(0, 10) == bytes(10)
    assert interface.io_stores == 0 and interface.bytes_sent == 0


def test_uncoalesced_run_takes_the_loop_when_the_remote_is_observed():
    interface, mapping, remote = make_pair()
    seen = []
    remote.add_observer(
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
    interface, mapping, _remote = make_pair()
    mapping.write(64, b"\x01" * 2)
    interface.trace  # a statistics read: simulates the store, no drain
    assert not interface._pending
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


def test_loopback_delivers_a_long_backlog_in_order():
    local = MemoryRegion("local", 4)
    loopback = LoopbackBuffer(local)
    for value in range(5000):
        loopback.enqueue(value % 4, bytes([value % 251]))
    assert loopback.deliver(4996) == 4996
    assert loopback.pending_writes == 4
    assert loopback.deliver() == 4
    assert local.snapshot() == bytes(value % 251 for value in range(4996, 5000))


def test_bytes_sent_is_a_running_total_across_every_lane():
    interface, mapping, _remote = make_pair()
    mapping.write(0, b"abcd", WriteCategory.META)
    interface._transmit_trusted(mapping, 4, b"efgh", WriteCategory.UNDO)
    mapping.write_uncoalesced(8, b"ijklmnop", WriteCategory.UNDO)
    mapping.write_run(16, ((b"qr", WriteCategory.META), (b"stu", WriteCategory.MODIFIED)))
    assert interface.bytes_sent == 21 == sum(interface.bytes_by_category.values())
    interface.reset_stats()
    assert interface.bytes_sent == 0
    mapping.write(0, b"ab")
    assert interface.bytes_sent == 2


# -- write_run vs the per-part write loop ------------------------------

#: Small and prime: stores land on each other's blocks all the time
#: (what the mid-block merge trap needs) and runs end mid-block.
WINDOW = 29
_categories = st.sampled_from(list(WriteCategory))
_parts = st.lists(
    st.tuples(st.binary(min_size=0, max_size=5), _categories),
    min_size=0, max_size=5,
)
#: Mostly low, so most runs fit the window and take the lane.
_offsets = st.one_of(st.integers(0, 12), st.integers(-2, WINDOW + 2))
_lane_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write_run"), _offsets, _parts),
        st.tuples(st.just("write"), _offsets, st.binary(min_size=0, max_size=5),
                  _categories),
        st.tuples(st.just("foreign_run"), _offsets, _parts),  # not installed here
        st.tuples(st.just("barrier")),
        st.tuples(st.just("trace")),
        st.tuples(st.just("protect")),
        st.tuples(st.just("unprotect")),
        st.tuples(st.just("window"), st.integers(0, WINDOW), st.integers(0, 16)),
        st.tuples(st.just("close")),
        st.tuples(st.just("crash_remote")),
        st.tuples(st.just("reboot_remote")),
        st.tuples(st.just("crash_interface")),
        st.tuples(st.just("reboot_interface")),
    ),
    min_size=1, max_size=30,
)


def _run_lanes(ops, lane, observed, geometry, region_cls,
               reference_buffers=False, one_shot=False):
    """Apply ``ops`` with ``write_run`` (handed a list, or a one-shot
    iterator over it), or with its definition: one ``mapping.write``
    per part in order, stopping where one raises."""
    remote = region_cls("remote", WINDOW)
    buffers, block_bytes = geometry
    interface = MemoryChannelInterface(
        "sender", write_buffers=buffers, write_buffer_bytes=block_bytes)
    if reference_buffers:
        interface.write_buffer = ReferenceWriteBufferModel(buffers, block_bytes)
    mapping = interface.map_remote(remote)
    foreign = MemoryChannelInterface("other").map_remote(remote)
    foreign.interface = interface  # a window this interface never installed
    packets = []
    record = interface._trace.record
    interface.write_buffer.on_packet = lambda size: (packets.append(size), record(size))
    seen = []
    if observed:
        remote.add_observer(lambda offset, length, category: seen.append(
            (offset, length, category)))
    outcomes = []
    for op in ops:
        try:
            if op[0] in ("write_run", "foreign_run"):
                target = mapping if op[0] == "write_run" else foreign
                if lane:
                    target.write_run(
                        op[1], iter(op[2]) if one_shot else op[2])
                else:
                    offset = op[1]
                    for data, category in op[2]:
                        target.write(offset, data, category)
                        offset += len(data)
            elif op[0] == "write":
                mapping.write(op[1], op[2], op[3])
            elif op[0] == "barrier":
                interface.barrier()
            elif op[0] == "trace":
                outcomes.append(dict(interface.trace.histogram))
                continue
            elif op[0] == "protect":
                remote.protect()
            elif op[0] == "unprotect":
                remote.unprotect()
            elif op[0] == "window":
                remote.open_window(op[1], op[2])
            elif op[0] == "close":
                remote.close_window()
            elif op[0] in ("crash_remote", "reboot_remote"):
                remote._crashed = op[0] == "crash_remote"
            elif op[0] == "crash_interface":
                interface.crash()
            else:
                interface.reboot()
            outcomes.append(None)
        except ReproError as error:
            outcomes.append((type(error), str(error)))
    remote._crashed = False
    interface._crashed = False
    interface.barrier()
    return {
        "outcomes": outcomes,
        "bytes": remote.snapshot(),
        "remote": (remote.writes_observed, remote.bytes_written),
        "seen": seen,
        "packets": packets,
        "histogram": dict(interface.trace.histogram),
        "io_stores": interface.io_stores,
        "bytes_sent": (interface.bytes_sent, mapping.bytes_sent, foreign.bytes_sent),
        "by_category": (
            list(interface.bytes_by_category.items()),
            list(mapping.bytes_by_category.items()),
            list(foreign.bytes_by_category.items()),
        ),
    }


@pytest.mark.parametrize("fast", [True, False], ids=["fastpath", "reference"])
@pytest.mark.parametrize("observed", [False, True], ids=["plain", "observed"])
@settings(max_examples=150, deadline=None)
@given(
    ops=_lane_ops,
    geometry=st.sampled_from([(2, 4), (6, 32), (1, 8)]),
    pending_limit=st.sampled_from([2, 5, 8192]),
)
def test_write_run_through_a_mapping_matches_the_per_part_loop(
    fast, observed, ops, geometry, pending_limit
):
    """A run is its stores on the wire too: same remote bytes and
    counters, same packets in the same order, same ``io_stores`` and
    byte accounting, and the same error after the same parts went out
    — crashed interface or remote, protected or observed remote,
    uninstalled mapping, runs overrunning either window edge,
    zero-length parts, a one-shot iterator for a run, and a pending
    limit crossed mid-run. The ``reference`` leg's oracle is the
    per-part loop over the reference write-buffer model and region."""
    real_limit = memory_channel._PENDING_LIMIT
    memory_channel._PENDING_LIMIT = pending_limit
    try:
        oracle = _run_lanes(
            ops, False, observed, geometry,
            MemoryRegion if fast else ReferenceMemoryRegion,
            reference_buffers=not fast)
        for region_cls in (MemoryRegion, ReferenceMemoryRegion):
            for one_shot in (False, True):
                assert _run_lanes(
                    ops, True, observed, geometry, region_cls,
                    one_shot=one_shot) == oracle
    finally:
        memory_channel._PENDING_LIMIT = real_limit


def _spy_on_transmit(interface):
    calls = []
    transmit = interface._transmit
    interface._transmit = lambda *args: (calls.append(args[2]), transmit(*args))
    return calls


_RUN = ((b"head", WriteCategory.META), (b"", WriteCategory.UNDO),
        (b"payload", WriteCategory.MODIFIED))


def test_run_into_a_plain_remote_is_one_deposit_and_a_store_per_part():
    interface, mapping, remote = make_pair(64)
    calls = _spy_on_transmit(interface)
    mapping.write_run(20, _RUN)
    assert calls == []  # the run lane, not the per-part loop
    assert remote.read(20, 11) == b"headpayload"
    assert (remote.writes_observed, remote.bytes_written) == (2, 11)
    assert interface.io_stores == 2
    assert interface.bytes_by_category == mapping.bytes_by_category == {
        WriteCategory.META: 4, WriteCategory.MODIFIED: 7}
    assert (interface.bytes_sent, mapping.bytes_sent) == (11, 11)
    interface.barrier()
    assert interface.trace.histogram == {11: 1}


def test_run_ending_exactly_at_the_window_edge_takes_the_lane():
    interface, mapping, remote = make_pair(64)
    calls = _spy_on_transmit(interface)
    mapping.write_run(53, _RUN)
    assert calls == []
    assert remote.read(53, 11) == b"headpayload"


def test_run_one_byte_past_the_window_sends_the_parts_that_fit():
    interface, mapping, remote = make_pair(64)
    with pytest.raises(NotMappedError, match=r"\[58, 65\)"):
        mapping.write_run(54, _RUN)
    assert interface.io_stores == 1
    assert remote.read(54, 10) == b"head" + bytes(6)
    assert interface.bytes_by_category == {WriteCategory.META: 4}


def test_run_into_a_protected_remote_stops_at_the_window_edge():
    interface, mapping, remote = make_pair(64)
    remote.protect()
    remote.open_window(20, 11)
    mapping.write_run(20, _RUN)  # inside the open window
    assert remote.read(20, 11) == b"headpayload"
    remote.open_window(20, 8)
    with pytest.raises(ProtectionError):
        mapping.write_run(20, ((b"HEAD", WriteCategory.META),
                               (b"PAYLOAD", WriteCategory.MODIFIED)))
    assert remote.read(20, 11) == b"HEADpayload"
    assert interface.io_stores == 4  # the refused store was issued
    assert interface.bytes_sent == 15


@pytest.mark.parametrize("down", ["interface", "remote", "uninstalled"])
def test_run_raises_what_its_first_store_raises(down):
    interface, mapping, remote = make_pair(64)
    if down == "interface":
        interface.crash()
        expected = CrashedError
    elif down == "remote":
        remote._crashed = True
        expected = CrashedError
    else:
        mapping = MemoryChannelInterface("other").map_remote(remote)
        mapping.interface = interface
        expected = NotMappedError
    with pytest.raises(expected):
        mapping.write_run(0, _RUN)
    with pytest.raises(expected):  # an empty first part: the second's error
        mapping.write_run(0, ((b"", WriteCategory.META), (b"x", WriteCategory.META)))
    remote._crashed = False
    assert remote.snapshot() == bytes(64)
    assert interface.bytes_sent == 0
    # the crashed remote refused stores the interface had already issued
    assert interface.io_stores == (2 if down == "remote" else 0)


def test_an_all_empty_run_issues_nothing_anywhere():
    interface, mapping, remote = make_pair(64)
    mapping.write_run(1000, ((b"", WriteCategory.META),) * 3)
    assert (interface.io_stores, remote.writes_observed) == (0, 0)
    assert not interface._pending


def test_run_keeps_one_store_per_part_where_parts_meet_mid_block():
    """The counter-example below, through the run lane: the run's two
    parts stay two stores."""
    interface = MemoryChannelInterface(
        "sender", write_buffers=2, write_buffer_bytes=4)
    mapping = interface.map_remote(MemoryRegion("remote", 16))
    sizes = []
    interface.write_buffer.on_packet = sizes.append
    mapping.write(5, b"abc")
    mapping.write_run(3, ((b"defg", WriteCategory.META),
                          (b"hijk", WriteCategory.META)))
    assert interface._pending == [
        (mapping.io_base + 5, 3), (mapping.io_base + 3, 4),
        (mapping.io_base + 7, 4)]
    interface.barrier()
    assert sizes == [4, 1, 1, 3]


@pytest.mark.parametrize(
    "model", [WriteBufferModel, ReferenceWriteBufferModel],
    ids=["WriteBufferModel", "oracle"])
def test_adjacent_stores_meeting_mid_block_are_not_one_store(model):
    """Why a run keeps one pending entry per store, and ``write_batch``
    coalesces only at block boundaries: (3,4) and (7,4) are adjacent,
    but the earlier (5,3) lets (3,4) complete block 1 in the middle of
    the pair, so (7,4) reopens it — merged, it would not."""
    def drained(stores):
        sizes = []
        buffer = model(num_buffers=2, block_bytes=4, on_packet=sizes.append)
        buffer.write_batch(stores)
        buffer.barrier()
        return sizes

    assert drained([(5, 3), (3, 4), (7, 4)]) == [4, 1, 1, 3]
    assert drained([(5, 3), (3, 8)]) == [4, 1, 3]


def test_run_from_a_one_shot_iterator_is_issued_and_accounted():
    """A generator of parts is stored, counted and queued for packet
    formation exactly as the same parts from a tuple."""
    interface, mapping, remote = make_pair(64)
    mapping.write_run(20, (part for part in _RUN))
    assert remote.read(20, 11) == b"headpayload"
    assert interface.io_stores == 2
    assert interface._pending == [
        (mapping.io_base + 20, 4), (mapping.io_base + 24, 7)]
    assert interface.bytes_by_category == mapping.bytes_by_category == {
        WriteCategory.META: 4, WriteCategory.MODIFIED: 7}
