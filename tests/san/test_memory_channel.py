"""Memory Channel semantics: write-through, write doubling, packet
accounting, crash behaviour."""

import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CrashedError, NotMappedError, ReproError
from repro.hardware.writebuffer import WriteBufferModel
from repro.memory.region import MemoryRegion, WriteCategory
from repro.replication.writethrough import ReplicaBinding
from repro.san import memory_channel
from repro.san.memory_channel import MemoryChannelInterface
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


def _sender(buffers, block_bytes, model=WriteBufferModel):
    """A sender whose CPU has ``buffers`` write buffers of
    ``block_bytes`` each, in place of the 21164A's six 32-byte ones."""
    interface = MemoryChannelInterface("sender")
    interface.write_buffer = model(
        buffers, block_bytes, on_packet=interface._trace.record)
    return interface


def _spy_on_write(mapping):
    """The data of every store that goes through ``mapping.write``: a
    fragmented run's per-word loop or a run's per-part loop, not the
    arithmetic or run lane."""
    stores = []
    write = mapping.write
    mapping.write = lambda *args: (stores.append(args[1]), write(*args))
    return stores


def test_uncoalesced_run_from_a_drained_interface_is_computed_whole():
    interface, mapping, remote = make_pair()
    words = _spy_on_write(mapping)
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
    interface = _sender(2, 2)  # 2-byte blocks under a 4-byte word
    mapping = interface.map_remote(remote)
    sizes = []
    interface.write_buffer.on_packet = sizes.append
    words = _spy_on_write(mapping)
    mapping.write_uncoalesced(1, b"\x01" * 4)
    assert sizes == [2, 1, 1]
    assert len(words) == 1


def test_uncoalesced_run_takes_the_loop_when_the_remote_is_observed():
    interface, mapping, remote = make_pair()
    seen = []
    remote.add_observer(
        lambda offset, length, category: seen.append((offset, length)))
    words = _spy_on_write(mapping)
    mapping.write_uncoalesced(0, b"\x07" * 10)
    assert words == [b"\x07" * 4, b"\x07" * 4, b"\x07" * 2]
    assert seen == [(0, 4), (4, 4), (8, 2)]
    assert interface.trace.histogram == {4: 2, 2: 1}


def test_uncoalesced_run_into_a_crashed_remote_raises_at_its_first_word():
    interface, mapping, remote = make_pair()
    remote._crashed = True  # what RioMemory.crash() does to a region
    with pytest.raises(CrashedError):
        mapping.write_uncoalesced(0, b"\x07" * 8)
    assert interface.io_stores == 1  # issued, then refused by the remote
    remote._crashed = False
    assert remote.snapshot() == bytes(remote.size)
    mapping.write_uncoalesced(0, b"\x07" * 8)
    assert remote.read(0, 8) == b"\x07" * 8


def test_uncoalesced_run_behind_deferred_stores_takes_the_loop():
    interface, mapping, _remote = make_pair()
    mapping.write(64, b"\x01" * 4)
    assert interface._pending
    words = _spy_on_write(mapping)
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
    words = _spy_on_write(mapping)
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
    interface.unmap_all()
    with pytest.raises(NotMappedError, match="not installed"):
        mapping.write_uncoalesced(0, b"\x07" * 8)


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


def test_unmapped_mapping_rejected():
    interface, mapping, _remote = make_pair()
    mapping.interface = MemoryChannelInterface("other")  # never installed there
    with pytest.raises(NotMappedError, match="not installed"):
        mapping.write(0, b"x")
    mapping.interface = interface
    interface.unmap_all()
    with pytest.raises(NotMappedError, match="not installed"):
        mapping.write(0, b"")
    assert interface.io_stores == 0


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
    ReplicaBinding(local, interface.map_remote(remote))
    local.write(5, b"twice")
    assert local.read(5, 5) == b"twice"
    assert remote.read(5, 5) == b"twice"
    assert interface.io_stores == 1


def test_bytes_sent_is_a_running_total_across_every_lane():
    interface, mapping, _remote = make_pair()
    mapping.write(0, b"abcd", WriteCategory.META)
    mapping.write(4, memoryview(b"efgh"), WriteCategory.UNDO)
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
        # a view into a larger buffer, as a doubling binding sends
        st.tuples(st.just("write_view"), _offsets, st.binary(min_size=0, max_size=8),
                  st.integers(0, 3), _categories),
        st.tuples(st.just("foreign_run"), _offsets, _parts),  # not installed here
        st.tuples(st.just("barrier")),
        st.tuples(st.just("trace")),
        st.tuples(st.just("crash_remote")),
        st.tuples(st.just("reboot_remote")),
        st.tuples(st.just("crash_interface")),
        st.tuples(st.just("revive_interface")),
        st.tuples(st.just("unmap")),
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
    interface = _sender(
        buffers, block_bytes,
        ReferenceWriteBufferModel if reference_buffers else WriteBufferModel)
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
            elif op[0] == "write_view":
                mapping.write(op[1], memoryview(op[2])[op[3]:], op[4])
            elif op[0] == "barrier":
                interface.barrier()
            elif op[0] == "trace":
                outcomes.append(dict(interface.trace.histogram))
                continue
            elif op[0] in ("crash_remote", "reboot_remote"):
                remote._crashed = op[0] == "crash_remote"
            elif op[0] == "crash_interface":
                interface.crash()
            elif op[0] == "unmap":
                interface.unmap_all()
            else:  # revive_interface
                interface._crashed = False
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
    — crashed interface or remote, observed remote,
    uninstalled mapping (a foreign one, or every window unmapped),
    runs overrunning either window edge, zero-length parts, a one-shot
    iterator for a run, single stores of memoryview slices, and a
    pending limit crossed mid-run. The ``reference`` leg's oracle is the
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


_RUN = ((b"head", WriteCategory.META), (b"", WriteCategory.UNDO),
        (b"payload", WriteCategory.MODIFIED))


def test_run_into_a_plain_remote_is_one_deposit_and_a_store_per_part():
    interface, mapping, remote = make_pair(64)
    calls = _spy_on_write(mapping)
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
    calls = _spy_on_write(mapping)
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
    """The counter-example below, through the run lane: the run is one
    pending entry carrying both part lengths, its parts stay two
    stores, and the junction the earlier store closes early is not
    merged."""
    interface = _sender(2, 4)
    mapping = interface.map_remote(MemoryRegion("remote", 16))
    sizes = []
    interface.write_buffer.on_packet = sizes.append
    mapping.write(5, b"abc")
    mapping.write_run(3, ((b"defg", WriteCategory.META),
                          (b"hijk", WriteCategory.META)))
    assert interface._pending == [
        (mapping.io_base + 5, 3), (mapping.io_base + 3, (4, 4))]
    assert interface._pending_stores == interface.io_stores == 3
    interface.barrier()
    assert sizes == [4, 1, 1, 3]


@pytest.mark.parametrize(
    "model", [WriteBufferModel, ReferenceWriteBufferModel],
    ids=["WriteBufferModel", "oracle"])
def test_adjacent_stores_meeting_mid_block_are_not_one_store(model):
    """The trap the junction rule avoids (DESIGN §10): (3,4) and (7,4)
    are adjacent, but the earlier (5,3) lets (3,4) complete block 1 in
    the middle of the pair, so (7,4) reopens it — merged, it would
    not. The junction at 7 is mid-block and block 1 already held bytes
    past it, so ``write_batch`` must keep the two stores apart."""
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
    formation exactly as the same parts from a tuple: one pending
    entry carrying the non-empty parts' lengths."""
    interface, mapping, remote = make_pair(64)
    mapping.write_run(20, (part for part in _RUN))
    assert remote.read(20, 11) == b"headpayload"
    assert interface.io_stores == interface._pending_stores == 2
    assert interface._pending == [(mapping.io_base + 20, (4, 7))]
    assert interface.bytes_by_category == mapping.bytes_by_category == {
        WriteCategory.META: 4, WriteCategory.MODIFIED: 7}


# -- the lane is one frame deep ------------------------------------------


def _repro_frames(action):
    """The ``repro`` functions ``action`` enters, in call order, as
    ``(module file, function)`` (comprehensions, which py3.12 inlines,
    left out)."""
    package = os.path.dirname(os.path.dirname(memory_channel.__file__)) + os.sep
    calls = []

    def profile(frame, event, _arg):
        if event == "call":
            calls.append(frame.f_code)

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return [
        (code.co_filename[len(package):], code.co_name) for code in calls
        if code.co_filename.startswith(package) and not code.co_name.startswith("<")
    ]


def test_each_store_lane_is_one_frame_of_the_channel_module():
    """No public -> private hop: a plain store, a run and an arithmetic
    word run each run in the one method called."""
    interface, mapping, _remote = make_pair()

    def channel_frames(action):
        return [name for module, name in _repro_frames(action)
                if module == "san/memory_channel.py"]

    assert channel_frames(lambda: mapping.write(0, b"abcd")) == ["write"]
    assert channel_frames(lambda: mapping.write_run(8, _RUN)) == ["write_run"]
    interface.barrier()
    assert channel_frames(
        lambda: mapping.write_uncoalesced(32, b"\x07" * 10)) == ["write_uncoalesced"]
    assert interface.io_stores == 6  # one, two parts, three words


def test_a_doubled_store_reaches_the_wire_through_the_binding_alone():
    """The binding installs the window's own observer: a doubled store
    is the region's frame, then the SAN lane's, and nothing between."""
    local = MemoryRegion("local", 64)
    interface = MemoryChannelInterface("sender")
    ReplicaBinding(local, interface.map_remote(MemoryRegion("twin", 64)))
    assert _repro_frames(lambda: local.write_u64(8, 7)) == [
        ("memory/region.py", "write_u64"),
        ("san/memory_channel.py", "_doubled_store"),
    ]
    assert interface.io_stores == 1


def test_a_doubled_word_batch_is_one_lane_frame():
    """N words through write_words: one region frame, one lane frame,
    N I/O-space stores."""
    local = MemoryRegion("local", 128)
    interface = MemoryChannelInterface("sender")
    remote = MemoryRegion("twin", 128)
    ReplicaBinding(local, interface.map_remote(remote))
    pairs = [(8 * index, index + 1) for index in range(12)]
    assert _repro_frames(lambda: local.write_words(pairs)) == [
        ("memory/region.py", "write_words"),
        ("san/memory_channel.py", "_doubled_words"),
    ]
    assert interface.io_stores == len(pairs)
    assert remote.writes_observed == local.writes_observed == len(pairs)
    assert remote.snapshot() == local.snapshot()
