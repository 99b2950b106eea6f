"""The Memory Channel interface model.

A :class:`MemoryChannelInterface` belongs to one node. A
:class:`TransmitMapping` connects a window of the node's I/O space to a
:class:`~repro.memory.region.MemoryRegion` on a remote node: stores to
the window are folded into Memory Channel packets by the sender's
write buffers (:class:`~repro.hardware.writebuffer.WriteBufferModel`)
and deposited into the remote region by DMA — the remote CPU is never
involved, which is what makes a *passive* backup possible.

Only remote writes are supported; remote reads are not (Section 2.3).
The asymmetry forces "write doubling": the sender keeps an ordinary
local copy for reads and performs every store twice, once to the local
copy and once to I/O space. Loopback mode — where the interface also
applies I/O-space stores to the local copy — is modelled too, including
the delivery delay that makes it impractical (a processor may not see
its own last write), which is why all the paper's systems double-write
instead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import CrashedError, NotMappedError
from repro.fastpath.replay import GLOBAL_REPLAY_CACHE
from repro.hardware.specs import SanSpec, MEMORY_CHANNEL_II
from repro.hardware.writebuffer import WriteBufferModel
from repro.memory.region import MemoryRegion, WriteCategory
from repro.obs.observer import resolve_observer
from repro.san.packets import PacketTrace

#: Cap on deferred stores held per interface before a partial drain;
#: bounds memory for barrier-free streams (the redo ring's).
_PENDING_LIMIT = 8192


class TransmitMapping:
    """One sender-side I/O-space window mapped onto a remote region.

    The window occupies ``[io_base, io_base + size)`` in the sender's
    I/O space and is backed by ``remote`` (same size) on the receiver.
    """

    def __init__(
        self,
        interface: "MemoryChannelInterface",
        io_base: int,
        remote: MemoryRegion,
        name: str = "",
    ):
        self.interface = interface
        self.io_base = io_base
        self.remote = remote
        self.size = remote.size
        self.name = name or remote.name
        #: The one byte count a store updates; every other traffic
        #: total (this window's, the interface's) is derived on read.
        self.bytes_by_category: Dict[WriteCategory, int] = {}

    @property
    def bytes_sent(self) -> int:
        return sum(self.bytes_by_category.values())

    def write(
        self,
        offset: int,
        data: bytes,
        category: WriteCategory = WriteCategory.MODIFIED,
    ) -> None:
        """Store ``data`` at ``offset`` within the window.

        The store is pushed through the sender's write buffers (packet
        accounting) and delivered into the remote region.
        """
        self.interface._transmit(self, offset, data, category)

    def write_run(self, offset: int, parts) -> None:
        """Store ``parts`` — ``(data, category)`` pairs — end to end
        from ``offset``: exactly ``write(part)`` per part in order (see
        :meth:`MemoryChannelInterface._transmit_run`)."""
        self.interface._transmit_run(self, offset, parts)

    def write_uncoalesced(
        self,
        offset: int,
        data: bytes,
        category: WriteCategory = WriteCategory.MODIFIED,
        word_bytes: int = 4,
    ) -> None:
        """Store ``data`` as isolated word-size packets.

        Models a doubled-write stream whose source stalls between
        stores (e.g. copying through cache-missing mirror lines): the
        write buffer drains during each stall, so every word leaves as
        its own Memory Channel packet — the "no aggregation" behaviour
        the paper reports for the mirroring protocols (Section 8).
        """
        if word_bytes < 1:
            raise ValueError(f"word_bytes must be positive, got {word_bytes}")
        self.interface._transmit_uncoalesced(self, offset, data, category, word_bytes)

    def __repr__(self) -> str:
        return (
            f"TransmitMapping({self.name!r}, io_base={self.io_base:#x}, "
            f"size={self.size})"
        )


class LoopbackBuffer:
    """Models loopback mode's delayed local delivery.

    Writes queue here before being applied to the local copy; until
    :meth:`deliver` runs, local reads see stale data — the
    read-your-writes hazard that makes loopback impractical
    (Section 2.3).
    """

    def __init__(self, local: MemoryRegion):
        self.local = local
        self._pending: Deque[Tuple[int, bytes]] = deque()

    def enqueue(self, offset: int, data: bytes) -> None:
        self._pending.append((offset, data))

    @property
    def pending_writes(self) -> int:
        return len(self._pending)

    def deliver(self, count: Optional[int] = None) -> int:
        """Apply up to ``count`` queued writes (all when None)."""
        if count is None:
            count = len(self._pending)
        delivered = 0
        while self._pending and delivered < count:
            offset, data = self._pending.popleft()
            self.local.write(offset, data, WriteCategory.META)
            delivered += 1
        return delivered


class MemoryChannelInterface:
    """The per-node Memory Channel adapter.

    Args:
        node_name: owner label, for diagnostics.
        san: link parameters (defaults to Memory Channel II).
        write_buffers / write_buffer_bytes: the sending CPU's buffer
            geometry (6 x 32 bytes on the 21164A).
    """

    def __init__(
        self,
        node_name: str = "node",
        san: SanSpec = MEMORY_CHANNEL_II,
        write_buffers: int = 6,
        write_buffer_bytes: int = 32,
        observer=None,
    ):
        self.node_name = node_name
        self.san = san
        self._trace = PacketTrace()
        self.observer = resolve_observer(observer)
        self.write_buffer = WriteBufferModel(
            num_buffers=write_buffers,
            block_bytes=write_buffer_bytes,
            on_packet=self._trace.record,
        )
        self._mappings: List[TransmitMapping] = []
        self._next_io_base = 0x8000_0000
        self._crashed = False
        self.io_stores = 0  # number of I/O-space store instructions issued
        # Stores whose write-buffer simulation is deferred to the next
        # ordering point — barrier, statistics read, crash — or the
        # pending limit (same order, same packets; data movement and
        # byte accounting are never deferred). _pending_start_empty
        # remembers whether the buffers were drained when the batch
        # began, which is what makes the batch replay-cacheable as a
        # pure function.
        self._pending: List[Tuple[int, int]] = []
        self._pending_start_empty = False
        # The observer's four counters and the totals they last saw
        # (see _fold_metrics).
        self._metric_names = tuple(
            f"san.{node_name}.{metric}"
            for metric in ("io_stores", "bytes", "packets", "packet_bytes")
        )
        self._folded = (0, 0, 0, 0)

    # -- mapping management ------------------------------------------------

    def map_remote(self, remote: MemoryRegion, name: str = "") -> TransmitMapping:
        """Create a transmit window onto ``remote``.

        The kernel and remote CPU are involved only here, at mapping
        time — never per-write.
        """
        self._check_alive()
        mapping = TransmitMapping(self, self._next_io_base, remote, name)
        self._next_io_base += _align_up(remote.size, 8192)
        self._mappings.append(mapping)
        return mapping

    def unmap_all(self) -> None:
        """Remove every transmit window: a store through a stale
        :class:`TransmitMapping` raises :class:`NotMappedError`, and
        the interface <-> window reference cycle that kept the remote
        regions alive is gone."""
        # bytes_sent is summed over the windows: fold what they carried
        # and rebase — an observer's counters cannot decrease.
        self._fold_metrics()
        self._mappings.clear()
        self._folded = self._folded[:1] + (0,) + self._folded[2:]

    @property
    def mappings(self) -> List[TransmitMapping]:
        return list(self._mappings)

    @property
    def bytes_by_category(self) -> Dict[WriteCategory, int]:
        """Bytes sent per category, summed over the windows (read once
        per transaction or ordering point, never per store)."""
        totals: Dict[WriteCategory, int] = {}
        for mapping in self._mappings:
            for category, count in mapping.bytes_by_category.items():
                totals[category] = totals.get(category, 0) + count
        return totals

    @property
    def bytes_sent(self) -> int:
        return sum(mapping.bytes_sent for mapping in self._mappings)

    # -- transmission --------------------------------------------------------

    @property
    def trace(self) -> PacketTrace:
        """The packet trace; reading it settles any deferred stores so
        the histogram is exactly what simulating each store as it was
        issued would show."""
        self._flush_pending()
        if self.observer.enabled:
            self._fold_metrics()
        return self._trace

    def _fold_metrics(self) -> None:
        """Add what the interface's and write buffers' own totals gained
        since the last fold to the observer's ``san.<node>.*`` counters.
        Runs where the outside can order itself against the store
        stream — ``barrier``, ``crash``, ``reset_stats``, ``reboot``, a
        ``trace`` read — never per store or per packet, so a watched
        interface stays on the store path it runs unwatched."""
        buffer = self.write_buffer
        totals = (
            self.io_stores, self.bytes_sent,
            buffer.packets_emitted, buffer.bytes_emitted,
        )
        for name, total, seen in zip(self._metric_names, totals, self._folded):
            if total != seen:
                self.observer.count(name, total - seen)
        self._folded = totals

    def _flush_pending(self) -> None:
        """Push deferred stores through the write buffers (in original
        order) without draining them — packets fall out exactly where
        buffer fills and FIFO displacement would have emitted them."""
        if self._pending:
            pending, self._pending = self._pending, []
            self.write_buffer.write_batch(pending)

    def _check_alive(self) -> None:
        if self._crashed:
            raise CrashedError(f"Memory Channel interface of {self.node_name} is down")

    def _transmit(
        self,
        mapping: TransmitMapping,
        offset: int,
        data: bytes,
        category: WriteCategory,
    ) -> None:
        """Validate one store — interface up, window installed, store
        inside it — and issue it (:meth:`_transmit_trusted`)."""
        self._check_alive()
        if mapping not in self._mappings:
            raise NotMappedError(f"mapping {mapping.name!r} is not installed")
        length = len(data)
        if length and (offset < 0 or offset + length > mapping.size):
            raise NotMappedError(
                f"I/O-space write [{offset}, {offset + length}) outside "
                f"window {mapping.name!r} of size {mapping.size}"
            )
        self._transmit_trusted(mapping, offset, data, category)

    def _transmit_trusted(
        self,
        mapping: TransmitMapping,
        offset: int,
        data,
        category: WriteCategory,
    ) -> None:
        """Issue one validated store: the mapping is known installed
        and the store known in-bounds — :meth:`_transmit` just checked,
        or the sender is a write-doubling binding mirroring a local
        write that was bounds-checked against the same-size twin.

        Packet formation is deferred to the next ordering point: the
        store enters the CPU write buffers at its I/O-space address;
        coalescing across *distinct mappings* is still per 32-byte
        block, which the disjoint io_base values prevent from ever
        merging. The DMA into the remote physical memory (remote CPU
        uninvolved) and the byte accounting happen here.
        """
        if self._crashed:
            self._check_alive()
        length = len(data)
        if length == 0:
            return
        self.io_stores += 1
        pending = self._pending
        if not pending:
            self._pending_start_empty = not self.write_buffer.open_buffers
        pending.append((mapping.io_base + offset, length))
        if len(pending) >= _PENDING_LIMIT:
            self._flush_pending()
        remote = mapping.remote
        if (
            remote._observers
            or remote._protected
            or remote._crashed
        ):
            remote.write(offset, bytes(data), category)
        else:
            remote.data[offset : offset + length] = data
            remote.writes_observed += 1
            remote.bytes_written += length
        by_category = mapping.bytes_by_category
        by_category[category] = by_category.get(category, 0) + length

    def _transmit_run(self, mapping: TransmitMapping, offset: int, parts) -> None:
        """:meth:`_transmit` for each ``(data, category)`` of ``parts``,
        laid end to end from ``offset``.

        A healthy interface, an installed mapping, a run inside the
        window and a plain remote are established once; the bytes land
        as one slice assignment, and every non-empty part still issues
        its own store — stores that meet mid-block cannot be merged
        without changing the packets. Anything else is the per-part
        loop, which raises at the store that earns it."""
        parts = tuple(parts)  # read twice below; may be a one-shot iterator
        run = b"".join([data for data, _ in parts])
        total = len(run)
        remote = mapping.remote
        if (
            self._crashed
            or mapping not in self._mappings
            or offset < 0
            or offset + total > mapping.size
            or remote._observers
            or remote._protected
            or remote._crashed
        ):
            for data, category in parts:
                self._transmit(mapping, offset, data, category)
                offset += len(data)
            return
        buffer = self.write_buffer
        pending = self._pending
        address = mapping.io_base + offset
        stores = 0
        sent: Dict[WriteCategory, int] = {}
        for data, category in parts:
            length = len(data)
            if length == 0:
                continue
            stores += 1
            sent[category] = sent.get(category, 0) + length
            if not pending:
                self._pending_start_empty = not buffer.open_buffers
            pending.append((address, length))
            if len(pending) >= _PENDING_LIMIT:
                self._flush_pending()
                pending = self._pending
            address += length
        remote.data[offset : offset + total] = run
        remote.writes_observed += stores
        remote.bytes_written += total
        self.io_stores += stores
        by_category = mapping.bytes_by_category
        for category, length in sent.items():
            by_category[category] = by_category.get(category, 0) + length

    def _transmit_uncoalesced(
        self,
        mapping: TransmitMapping,
        offset: int,
        data: bytes,
        category: WriteCategory,
        word_bytes: int,
    ) -> None:
        """Transmit word-by-word, draining between stores so no
        coalescing happens (see TransmitMapping.write_uncoalesced).

        A run that starts from drained buffers on a healthy interface
        into a plain remote is computed whole: drained before and after
        every word, each word's packets are its own bytes split at
        block boundaries, in address order. (Address order needs one
        buffer or ``block_bytes >= word_bytes``: with more buffers a
        word that fully covers a block emits it ahead of the partial
        block still open before it.) Anything else — and every error —
        takes the per-word loop."""
        buffer = self.write_buffer
        length = len(data)
        remote = mapping.remote
        block_bytes = buffer.block_bytes
        if (
            length
            and not (self._crashed or self._pending or buffer.open_buffers)
            and (block_bytes >= word_bytes or buffer.num_buffers == 1)
            and mapping in self._mappings
            and 0 <= offset
            and offset + length <= mapping.size
            and not (
                remote._observers
                or remote._protected
                or remote._crashed
            )
        ):
            sizes: List[int] = []
            start = mapping.io_base + offset
            end = start + length
            for word in range(start, end, word_bytes):
                stop = min(word + word_bytes, end)
                edge = (word // block_bytes + 1) * block_bytes
                while edge < stop:
                    sizes.append(edge - word)
                    word = edge
                    edge += block_bytes
                sizes.append(stop - word)
            buffer.account_replayed(sizes, length)
            words = -(-length // word_bytes)
            self.io_stores += words
            remote.data[offset : offset + length] = data
            remote.writes_observed += words
            remote.bytes_written += length
            by_category = mapping.bytes_by_category
            by_category[category] = by_category.get(category, 0) + length
            return
        # :meth:`barrier` minus the metrics fold: nothing outside can
        # order itself between two words of a stream (the commit
        # barrier after it is the ordering point).
        for cursor in range(0, length, word_bytes):
            chunk = data[cursor : cursor + word_bytes]
            self._transmit(mapping, offset + cursor, chunk, category)
            self._drain()

    def _drain(self) -> None:
        """Settle the deferred stores and empty the write buffers."""
        pending = self._pending
        if pending and self._pending_start_empty:
            # The whole batch ran buffers-empty to barrier: a pure
            # store schedule. Replay its packet sequence from the
            # cache (simulating it once on a miss).
            self._pending = []
            buffer = self.write_buffer
            sizes, total_bytes = GLOBAL_REPLAY_CACHE.drain_sizes(
                pending, buffer.num_buffers, buffer.block_bytes
            )
            buffer.account_replayed(sizes, total_bytes)
        else:
            self._flush_pending()
            self.write_buffer.barrier()

    def barrier(self) -> None:
        """Drain the write buffers (commit-ordering point)."""
        self._drain()
        if self.observer.enabled:
            self._fold_metrics()

    # -- failure ---------------------------------------------------------------

    def crash(self) -> None:
        """Take the interface down with its node."""
        # Settle deferred stores first: they hit the wire before the
        # crash, so their displacement packets belong in the trace.
        self._flush_pending()
        self._fold_metrics()
        self._crashed = True

    def reboot(self) -> None:
        self._crashed = False
        self._pending.clear()
        self._fold_metrics()
        self.write_buffer.reset()
        self._folded = self._folded[:2] + (0, 0)  # the buffers' half

    # -- statistics --------------------------------------------------------------

    def link_time_us(self) -> float:
        """Link occupancy consumed by everything sent so far."""
        return self.trace.link_time_us(self.san)

    def reset_stats(self) -> None:
        # Deferred stores are dropped unsimulated (that would only
        # build packet state cleared below): the fold still reports
        # their io_stores and bytes, counted at issue; packets they
        # had not formed are counted nowhere. Fold before zeroing and
        # rebase after — an observer's counters cannot decrease.
        self._pending.clear()
        self._fold_metrics()
        self._trace.clear()
        self.write_buffer.reset()
        self.io_stores = 0
        for mapping in self._mappings:
            mapping.bytes_by_category.clear()
        self._folded = (0, 0, 0, 0)


@dataclass
class DoubledWrite:
    """Helper performing the canonical "write doubling" pattern: every
    store goes to the ordinary local copy *and* to the I/O-space window
    so the remote copy tracks it.
    """

    local: MemoryRegion
    mapping: TransmitMapping

    def write(
        self,
        offset: int,
        data: bytes,
        category: WriteCategory = WriteCategory.MODIFIED,
    ) -> None:
        self.local.write(offset, data, category)
        self.mapping.write(offset, data, category)

    def read(self, offset: int, length: int) -> bytes:
        """Reads always come from the local copy (remote reads are not
        supported by the hardware)."""
        return self.local.read(offset, length)


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)
