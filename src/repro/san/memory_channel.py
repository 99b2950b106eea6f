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
copy and once to I/O space. Loopback mode, where the interface also
applies I/O-space stores to the local copy, delivers them late enough
that a processor may not see its own last write, so none of the
paper's systems use it: they all double-write.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.errors import CrashedError, NotMappedError
from repro.fastpath.replay import GLOBAL_REPLAY_CACHE
from repro.hardware.specs import ALPHASERVER_4100, MEMORY_CHANNEL_II
from repro.hardware.writebuffer import WriteBufferModel
from repro.memory.region import (
    _META,
    MemoryRegion,
    Observer,
    WriteCategory,
    _pack_u64,
)
from repro.obs.observer import NULL_OBSERVER
from repro.san.packets import PacketTrace

#: Cap on deferred stores held per interface before a partial drain
#: (a run entry counts each of its parts); bounds memory for
#: barrier-free streams (the redo ring's).
_PENDING_LIMIT = 8192

#: Size of each isolated store :meth:`TransmitMapping.write_uncoalesced`
#: issues: a 21164A longword.
_STALLED_WORD_BYTES = 4


class TransmitMapping:
    """One sender-side I/O-space window mapped onto a remote region.

    The window occupies ``[io_base, io_base + size)`` in the sender's
    I/O space and is backed by ``remote`` (same size) on the receiver.
    Its store methods are the SAN store path — three a caller issues
    (:meth:`write`, :meth:`write_run`, :meth:`write_uncoalesced`) and
    the observer pair :meth:`double` installs on a doubled region, one
    store or one word batch a call: the bytes reach the remote region
    at once (DMA, remote CPU uninvolved) and are counted there; packet
    formation waits for the interface's next ordering point (disjoint
    ``io_base`` values keep windows from sharing a 32-byte block).
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
        #: The doubled region's bytes, once :meth:`double` installed it.
        self._source = None
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
        """Store ``data`` (any bytes-like object) at ``offset`` within
        the window: one I/O-space store. A crashed interface, a window
        not installed or a non-empty store outside it is refused."""
        interface = self.interface
        length = len(data)
        if (
            interface._crashed
            or self not in interface._mappings
            or (length and (offset < 0 or offset + length > self.size))
        ):
            interface._refuse(self, offset, length)
        if length == 0:
            return
        interface.io_stores += 1
        interface._pending.append((self.io_base + offset, length))
        held = interface._pending_stores + 1
        interface._pending_stores = held
        if held >= _PENDING_LIMIT:
            interface._flush_pending()
        remote = self.remote
        if remote._observers or remote._crashed:
            remote.write(offset, bytes(data), category)
        else:
            remote.data[offset : offset + length] = data
            remote.writes_observed += 1
            remote.bytes_written += length
        by_category = self.bytes_by_category
        by_category[category] = by_category.get(category, 0) + length

    def double(self, local: MemoryRegion) -> Observer:
        """Write doubling: install this window's observer pair on
        ``local`` so every store to it is also a store to the window,
        and return the per-store observer (what ``remove_observer``
        takes). The batch counterpart is installed only when the window
        covers ``local``, so a word in bounds there is in the window."""
        self._source = local.data
        local.add_observer(
            self._doubled_store,
            self._doubled_words if local.size <= self.size else None,
        )
        return self._doubled_store

    def _doubled_store(
        self, offset: int, length: int, category: WriteCategory
    ) -> None:
        """The per-store observer :meth:`double` installs: exactly
        :meth:`write` of the ``length`` bytes just stored at ``offset``
        in the doubled region (``length >= 1``, ``offset >= 0``: the
        region checked both). A store :meth:`write` would refuse, an
        observed or crashed remote and the store that reaches the
        pending limit go through :meth:`write` itself."""
        interface = self.interface
        remote = self.remote
        held = interface._pending_stores + 1
        if (
            interface._crashed
            or self not in interface._mappings
            or offset + length > self.size
            or remote._observers
            or remote._crashed
            or held >= _PENDING_LIMIT
        ):
            self.write(offset, self._source[offset : offset + length], category)
            return
        interface.io_stores += 1
        interface._pending.append((self.io_base + offset, length))
        interface._pending_stores = held
        remote.data[offset : offset + length] = self._source[
            offset : offset + length
        ]
        remote.writes_observed += 1
        remote.bytes_written += length
        by_category = self.bytes_by_category
        by_category[category] = by_category.get(category, 0) + length

    def _doubled_words(self, pairs: Sequence[Tuple[int, int]]) -> bool:
        """The batch counterpart :meth:`double` installs: exactly
        :meth:`_doubled_store` per word of a
        :meth:`~repro.memory.region.MemoryRegion.write_words` batch —
        the same ``(io_address, 8)`` pending entries, the values packed
        into the remote region — checked and counted once. Declines
        (False, nothing done) where a store would be refused, the
        remote is observed or crashed, or the pending limit would fall
        inside the batch: there the per-store calls are exact."""
        interface = self.interface
        remote = self.remote
        stores = len(pairs)
        held = interface._pending_stores + stores
        if (
            interface._crashed
            or self not in interface._mappings
            or remote._observers
            or remote._crashed
            or held >= _PENDING_LIMIT
        ):
            return False
        append = interface._pending.append
        data = remote.data
        io_base = self.io_base
        for offset, value in pairs:
            append((io_base + offset, 8))
            _pack_u64(data, offset, value)
        interface._pending_stores = held
        interface.io_stores += stores
        remote.writes_observed += stores
        remote.bytes_written += 8 * stores
        by_category = self.bytes_by_category
        by_category[_META] = by_category.get(_META, 0) + 8 * stores
        return True

    def write_run(self, offset: int, parts) -> None:
        """Store ``parts`` — ``(data, category)`` pairs — end to end
        from ``offset``: exactly :meth:`write` per part in order.

        A healthy interface, an installed window, a run inside it and a
        plain remote are established once; the bytes land as one slice
        assignment, every non-empty part still counts as its own store,
        and the parts queue as one pending entry that carries their
        lengths — the write buffers merge them wherever that leaves the
        packets unchanged. Anything else is the per-part loop, which
        raises at the store that earns it."""
        parts = tuple(parts)  # read twice below; may be a one-shot iterator
        run = b"".join([data for data, _ in parts])
        total = len(run)
        interface = self.interface
        remote = self.remote
        if (
            interface._crashed
            or self not in interface._mappings
            or offset < 0
            or offset + total > self.size
            or remote._observers
            or remote._crashed
        ):
            for data, category in parts:
                self.write(offset, data, category)
                offset += len(data)
            return
        lengths = []
        sent: Dict[WriteCategory, int] = {}
        for data, category in parts:
            length = len(data)
            if length:
                lengths.append(length)
                sent[category] = sent.get(category, 0) + length
        stores = len(lengths)
        if not stores:
            return
        interface._pending.append((self.io_base + offset, tuple(lengths)))
        held = interface._pending_stores + stores
        interface._pending_stores = held
        if held >= _PENDING_LIMIT:
            interface._flush_pending()
        remote.data[offset : offset + total] = run
        remote.writes_observed += stores
        remote.bytes_written += total
        interface.io_stores += stores
        by_category = self.bytes_by_category
        for category, length in sent.items():
            by_category[category] = by_category.get(category, 0) + length

    def write_uncoalesced(
        self,
        offset: int,
        data: bytes,
        category: WriteCategory = WriteCategory.MODIFIED,
    ) -> None:
        """Store ``data`` as isolated word-size packets
        (:data:`_STALLED_WORD_BYTES` each).

        Models a doubled-write stream whose source stalls between
        stores (e.g. copying through cache-missing mirror lines): the
        write buffer drains during each stall, so every word leaves as
        its own Memory Channel packet — the "no aggregation" behaviour
        the paper reports for the mirroring protocols (Section 8).

        From drained buffers on a healthy interface into a plain remote
        the run is computed whole: each word's packets are its own bytes
        split at block boundaries, in address order (which needs one
        buffer or ``block_bytes >= word_bytes``: with more, a word that
        fully covers a block emits it ahead of the partial one still
        open before it). Anything else — and every error — takes the
        per-word loop: :meth:`write`, then a drain."""
        word_bytes = _STALLED_WORD_BYTES
        interface = self.interface
        buffer = interface.write_buffer
        length = len(data)
        remote = self.remote
        block_bytes = buffer.block_bytes
        if (
            length
            and not (interface._crashed or interface._pending or buffer.open_buffers)
            and (block_bytes >= word_bytes or buffer.num_buffers == 1)
            and self in interface._mappings
            and 0 <= offset
            and offset + length <= self.size
            and not (remote._observers or remote._crashed)
        ):
            sizes: List[int] = []
            start = self.io_base + offset
            end = start + length
            for word in range(start, end, word_bytes):
                stop = min(word + word_bytes, end)
                edge = (word // block_bytes + 1) * block_bytes
                while edge < stop:
                    sizes.append(edge - word)
                    word = edge
                    edge += block_bytes
                sizes.append(stop - word)
            buffer.account_replayed(sizes, length, tuple(Counter(sizes).items()))
            words = -(-length // word_bytes)
            interface.io_stores += words
            remote.data[offset : offset + length] = data
            remote.writes_observed += words
            remote.bytes_written += length
            by_category = self.bytes_by_category
            by_category[category] = by_category.get(category, 0) + length
            return
        # The drain is barrier()'s minus the metrics fold: nothing
        # outside can order itself between two words of a stream (the
        # commit barrier after it is the ordering point).
        for cursor in range(0, length, word_bytes):
            self.write(offset + cursor, data[cursor : cursor + word_bytes], category)
            interface._drain()

    def __repr__(self) -> str:
        return (
            f"TransmitMapping({self.name!r}, io_base={self.io_base:#x}, "
            f"size={self.size})"
        )


class MemoryChannelInterface:
    """The per-node Memory Channel adapter.

    Args:
        node_name: owner label, for diagnostics.

    The link is Memory Channel II and the sending CPU's write buffers
    are the 21164A's (6 x 32 bytes): the paper's one machine.
    """

    def __init__(self, node_name: str = "node", observer=NULL_OBSERVER):
        self.node_name = node_name
        self._trace = PacketTrace()
        self.observer = observer
        self.write_buffer = WriteBufferModel(
            num_buffers=ALPHASERVER_4100.write_buffers,
            block_bytes=ALPHASERVER_4100.write_buffer_bytes,
            on_packet=self._trace.record,
        )
        # Installed windows, in mapping order; a dict so a store's
        # "installed?" test is one hash probe, not a list scan.
        self._mappings: Dict[TransmitMapping, None] = {}
        self._next_io_base = 0x8000_0000
        self._crashed = False
        self.io_stores = 0  # number of I/O-space store instructions issued
        # Stores whose write-buffer simulation is deferred to the next
        # ordering point — barrier, statistics read, crash — or the
        # pending limit (same order, same packets; data movement and
        # byte accounting are never deferred): write_batch entries,
        # a run's parts in one. _pending_stores counts the stores
        # held, which is what the limit bounds. _pending_start_empty
        # says whether the buffers were drained when the batch began,
        # which is what makes the batch replay-cacheable as a pure
        # function. The buffers' open set changes only where _pending
        # is emptied, so it is set there and nowhere else.
        self._pending: List[Tuple[int, object]] = []
        self._pending_stores = 0
        self._pending_start_empty = True
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
        self._mappings[mapping] = None
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
            self._pending_stores = 0
            buffer = self.write_buffer
            buffer.write_batch(pending)
            self._pending_start_empty = not buffer.open_buffers

    def _check_alive(self) -> None:
        if self._crashed:
            raise CrashedError(f"Memory Channel interface of {self.node_name} is down")

    def _refuse(self, mapping: TransmitMapping, offset: int, length: int) -> None:
        """Raise what a refused store earns, first failure first:
        interface down, window not installed, store outside it."""
        self._check_alive()
        if mapping not in self._mappings:
            raise NotMappedError(f"mapping {mapping.name!r} is not installed")
        raise NotMappedError(
            f"I/O-space write [{offset}, {offset + length}) outside "
            f"window {mapping.name!r} of size {mapping.size}"
        )

    def _drain(self) -> None:
        """Settle the deferred stores and empty the write buffers."""
        pending = self._pending
        if pending and self._pending_start_empty:
            # The whole batch ran buffers-empty to barrier: a pure
            # store schedule. Replay its packet sequence from the
            # cache (simulating it once on a miss).
            self._pending = []
            self._pending_stores = 0
            buffer = self.write_buffer
            buffer.account_replayed(*GLOBAL_REPLAY_CACHE.drain_sizes(
                pending, buffer.num_buffers, buffer.block_bytes
            ))
        else:
            self._flush_pending()
            self.write_buffer.barrier()
            self._pending_start_empty = True

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

    # -- statistics --------------------------------------------------------------

    def link_time_us(self) -> float:
        """Link occupancy consumed by everything sent so far."""
        return self.trace.link_time_us(MEMORY_CHANNEL_II)

    def reset_stats(self) -> None:
        # Deferred stores are dropped unsimulated (that would only
        # build packet state cleared below): the fold still reports
        # their io_stores and bytes, counted at issue; packets they
        # had not formed are counted nowhere. Fold before zeroing and
        # rebase after — an observer's counters cannot decrease.
        self._pending.clear()
        self._pending_stores = 0
        self._fold_metrics()
        self._trace.clear()
        self.write_buffer.reset()
        self._pending_start_empty = True
        self.io_stores = 0
        for mapping in self._mappings:
            mapping.bytes_by_category.clear()
        self._folded = (0, 0, 0, 0)


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)
