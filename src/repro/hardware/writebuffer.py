"""The Alpha write-buffer coalescing model.

The 21164A has six 32-byte write buffers. Contiguous stores to the
same 32-byte-aligned block share a buffer and are flushed to the
system bus together; the Memory Channel interface converts each PCI
write into a similar-size packet and never aggregates across PCI
writes, so the largest possible packet is 32 bytes (Section 2.3).

This module models that mechanism: a stream of (address, length)
stores into I/O space is folded into at most six open buffers; a
buffer drains as one packet when

* it becomes completely full (all 32 bytes written),
* it is displaced by a store to a seventh distinct block (FIFO), or
* an explicit barrier flushes everything (commit-ordering points).

The packet size is the number of distinct bytes written into the
buffer, which is what determines effective Memory Channel bandwidth
(Figure 1). This is the mechanism that makes the contiguous log
writes of Version 3 cheap (32-byte packets at 80 MB/s) and the
scattered 4-byte database writes expensive (~14 MB/s).
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

BLOCK_BYTES_DEFAULT = 32

try:  # py >= 3.10
    _popcount = int.bit_count
except AttributeError:  # pragma: no cover - exercised on py3.9 CI
    _POP16 = [bin(value).count("1") for value in range(1 << 16)]

    def _popcount(mask: int) -> int:
        count = 0
        while mask:
            count += _POP16[mask & 0xFFFF]
            mask >>= 16
        return count


@dataclass
class _OpenBuffer:
    """One in-flight write buffer covering a 32-byte-aligned block."""

    block: int
    written: int = 0  # bitmask over bytes in the block

    def add(self, lo: int, hi: int) -> None:
        """Mark bytes [lo, hi) within the block as written."""
        span = (1 << (hi - lo)) - 1
        self.written |= span << lo


class WriteBufferModel:
    """Folds a store stream into Memory Channel packets.

    Args:
        num_buffers: number of concurrent write buffers (6 on the EV5.6).
        block_bytes: buffer width (32 bytes).
        on_packet: optional callback invoked with each emitted packet
            size in bytes; used by the SAN layer to account link time.
    """

    def __init__(
        self,
        num_buffers: int = 6,
        block_bytes: int = BLOCK_BYTES_DEFAULT,
        on_packet: Optional[Callable[[int], None]] = None,
    ):
        if num_buffers < 1:
            raise ValueError("need at least one write buffer")
        if block_bytes < 1 or block_bytes & (block_bytes - 1):
            raise ValueError("block size must be a positive power of two")
        self.num_buffers = num_buffers
        self.block_bytes = block_bytes
        self.on_packet = on_packet
        self._open: "OrderedDict[int, _OpenBuffer]" = OrderedDict()
        self.packets_emitted = 0
        self.bytes_emitted = 0
        self._histogram: Counter = Counter()
        self._full_mask = (1 << block_bytes) - 1

    # -- store stream ---------------------------------------------------

    def write(self, address: int, length: int) -> None:
        """Record a store of ``length`` bytes at ``address``."""
        if length <= 0:
            return
        block_bytes = self.block_bytes
        end = address + length
        while address < end:
            block = address // block_bytes
            lo = address - block * block_bytes
            hi = min(end - block * block_bytes, block_bytes)
            self._write_block(block, lo, hi)
            address = (block + 1) * block_bytes

    def _write_block(self, block: int, lo: int, hi: int) -> None:
        buffer = self._open.get(block)
        if buffer is None:
            if len(self._open) >= self.num_buffers:
                # FIFO displacement: drain the oldest open buffer.
                _, oldest = self._open.popitem(last=False)
                self._emit(oldest)
            buffer = _OpenBuffer(block)
            self._open[block] = buffer
        buffer.written |= ((1 << (hi - lo)) - 1) << lo
        if buffer.written == self._full_mask:
            del self._open[block]
            self._emit(buffer)

    def write_batch(self, stores: Iterable[Tuple[int, int]]) -> None:
        """Record a whole batch of (address, length) stores.

        Semantically identical to calling :meth:`write` once per store
        in order — same packets, same statistics — but with the block
        loop inlined and every per-store attribute lookup hoisted out,
        which is what makes the batched store pipeline cheap.
        """
        block_bytes = self.block_bytes
        num_buffers = self.num_buffers
        full_mask = self._full_mask
        open_ = self._open
        get = open_.get
        for address, length in stores:
            if length <= 0:
                continue
            end = address + length
            while address < end:
                block = address // block_bytes
                base = block * block_bytes
                lo = address - base
                hi = end - base
                if hi > block_bytes:
                    hi = block_bytes
                buffer = get(block)
                if buffer is None:
                    if len(open_) >= num_buffers:
                        _, oldest = open_.popitem(last=False)
                        self._emit(oldest)
                    buffer = _OpenBuffer(block)
                    open_[block] = buffer
                buffer.written |= ((1 << (hi - lo)) - 1) << lo
                if buffer.written == full_mask:
                    del open_[block]
                    self._emit(buffer)
                address = base + block_bytes

    def barrier(self) -> None:
        """Flush all open buffers (a memory barrier / commit point)."""
        open_ = self._open
        while open_:
            _, buffer = open_.popitem(last=False)
            self._emit(buffer)

    def _emit(self, buffer: _OpenBuffer) -> None:
        size = _popcount(buffer.written)
        if size == 0:
            return
        self.packets_emitted += 1
        self.bytes_emitted += size
        self._histogram[size] += 1
        if self.on_packet is not None:
            self.on_packet(size)

    def account_replayed(self, sizes: Iterable[int], total_bytes: int) -> None:
        """Credit packets produced by a replay-cache hit.

        The fast path computed (or looked up) the packet sequence a
        store schedule drains into without running :meth:`write`; this
        folds those packets into the model's own statistics so its
        counters stay byte-identical with the slow path. The caller is
        responsible for the schedule having started *and* ended with no
        open buffers (a barrier-terminated batch).
        """
        sizes = tuple(sizes)
        self.packets_emitted += len(sizes)
        self.bytes_emitted += total_bytes
        self._histogram.update(sizes)
        if self.on_packet is not None:
            for size in sizes:
                self.on_packet(size)

    # -- inspection -----------------------------------------------------

    @property
    def open_buffers(self) -> int:
        """How many write buffers currently hold undrained stores."""
        return len(self._open)

    @property
    def histogram(self) -> dict:
        """Mapping of packet size (bytes) -> count of packets emitted."""
        return dict(self._histogram)

    def mean_packet_bytes(self) -> float:
        if not self.packets_emitted:
            return 0.0
        return self.bytes_emitted / self.packets_emitted

    def reset(self) -> None:
        """Drop open buffers and statistics."""
        self._open.clear()
        self.packets_emitted = 0
        self.bytes_emitted = 0
        self._histogram.clear()


class VectorWriteBufferModel:
    """Fast-path twin of :class:`WriteBufferModel`.

    Byte-identical packet sequences and statistics on every store
    schedule — the Hypothesis suite drives both models with random
    schedules and asserts the emitted packet streams match — but the
    bookkeeping is flat: open buffers are bare ``int`` bitmasks in a
    plain insertion-ordered dict (no per-buffer object allocation, no
    attribute chasing), and multi-block stores drain their interior
    full blocks with run-length arithmetic instead of a per-block
    Python loop. Contiguous streams (the Version 3 log discipline that
    motivates the model) touch the dict at most twice per store — the
    partial head and tail — no matter how many blocks they span.

    Equivalence notes, mirrored in the fallbacks below:

    * A store is split into head/interior/tail per block in address
      order, exactly the reference loop's order.
    * The interior bulk path only fires when no interior block is
      already open; then the reference would evict at most one oldest
      buffer (for the first interior block, if at capacity) and emit
      one full packet per block — pure arithmetic here. Any overlap
      falls back to the per-block path, which is the reference
      algorithm on int masks.
    * :meth:`write_batch` coalesces adjacent stores only when they
      meet on a block boundary, so the per-block sub-span sequence —
      and therefore every displacement and drain — is preserved
      exactly.
    """

    def __init__(
        self,
        num_buffers: int = 6,
        block_bytes: int = BLOCK_BYTES_DEFAULT,
        on_packet: Optional[Callable[[int], None]] = None,
    ):
        if num_buffers < 1:
            raise ValueError("need at least one write buffer")
        if block_bytes < 1 or block_bytes & (block_bytes - 1):
            raise ValueError("block size must be a positive power of two")
        self.num_buffers = num_buffers
        self.block_bytes = block_bytes
        self.on_packet = on_packet
        self._open: dict = {}  # block -> written bitmask (insertion = FIFO)
        self.packets_emitted = 0
        self.bytes_emitted = 0
        self._histogram: Counter = Counter()
        self._full_mask = (1 << block_bytes) - 1

    # -- store stream ---------------------------------------------------

    def write(self, address: int, length: int) -> None:
        """Record a store of ``length`` bytes at ``address``."""
        if length > 0:
            self._write_run(address, address + length)

    def write_batch(self, stores: Iterable[Tuple[int, int]]) -> None:
        """Record a whole batch of (address, length) stores.

        Adjacent stores that meet exactly on a block boundary are
        coalesced into one run before draining — the junction being
        block-aligned means the merged run splits into the very same
        per-block sub-spans the stores would produce individually, so
        the packet stream is untouched.
        """
        block_mask = self.block_bytes - 1
        run_start = 0
        run_end = -1  # sentinel: no open run
        for address, length in stores:
            if length <= 0:
                continue
            if address == run_end and address & block_mask == 0:
                run_end = address + length
                continue
            if run_end >= 0:
                self._write_run(run_start, run_end)
            run_start = address
            run_end = address + length
        if run_end >= 0:
            self._write_run(run_start, run_end)

    def _write_run(self, start: int, end: int) -> None:
        """Drain the contiguous byte run [start, end), start < end."""
        block_bytes = self.block_bytes
        first = start // block_bytes
        last = (end - 1) // block_bytes
        if first == last:
            base = first * block_bytes
            self._store(first, start - base, end - base)
            return
        head_lo = start - first * block_bytes
        if head_lo:
            self._store(first, head_lo, block_bytes)
            first += 1
        tail_hi = end - last * block_bytes
        interior_end = last + 1 if tail_hi == block_bytes else last
        if interior_end > first:
            self._store_full_blocks(first, interior_end)
        if tail_hi != block_bytes:
            self._store(last, 0, tail_hi)

    def _store(self, block: int, lo: int, hi: int) -> None:
        """Reference `_write_block` on a bare bitmask."""
        open_ = self._open
        span = ((1 << (hi - lo)) - 1) << lo
        mask = open_.get(block)
        if mask is None:
            if len(open_) >= self.num_buffers:
                # FIFO displacement: drain the oldest open buffer.
                oldest = next(iter(open_))
                self._emit_size(_popcount(open_.pop(oldest)))
            if span == self._full_mask:
                self._emit_size(self.block_bytes)
            else:
                open_[block] = span
            return
        mask |= span
        if mask == self._full_mask:
            del open_[block]
            self._emit_size(self.block_bytes)
        else:
            open_[block] = mask

    def _store_full_blocks(self, first: int, last: int) -> None:
        """Drain the fully-covered blocks [first, last) in one step."""
        open_ = self._open
        for block in open_:
            if first <= block < last:
                # An interior block is already partially open: the
                # displacement pattern depends on its position, so
                # take the exact per-block path.
                full = self.block_bytes
                for b in range(first, last):
                    self._store(b, 0, full)
                return
        count = last - first
        if open_ and len(open_) >= self.num_buffers:
            # Only the first insertion can displace: every block in
            # the run drains immediately, so occupancy never grows.
            oldest = next(iter(open_))
            self._emit_size(_popcount(open_.pop(oldest)))
        size = self.block_bytes
        self.packets_emitted += count
        self.bytes_emitted += count * size
        self._histogram[size] += count
        callback = self.on_packet
        if callback is not None:
            for _ in range(count):
                callback(size)

    def barrier(self) -> None:
        """Flush all open buffers (a memory barrier / commit point)."""
        open_ = self._open
        if not open_:
            return
        for mask in open_.values():  # insertion order == FIFO
            self._emit_size(_popcount(mask))
        open_.clear()

    def _emit_size(self, size: int) -> None:
        if size == 0:
            return
        self.packets_emitted += 1
        self.bytes_emitted += size
        self._histogram[size] += 1
        if self.on_packet is not None:
            self.on_packet(size)

    def account_replayed(self, sizes: Iterable[int], total_bytes: int) -> None:
        """Credit packets produced by a replay-cache hit (see
        :meth:`WriteBufferModel.account_replayed`)."""
        sizes = tuple(sizes)
        self.packets_emitted += len(sizes)
        self.bytes_emitted += total_bytes
        self._histogram.update(sizes)
        if self.on_packet is not None:
            for size in sizes:
                self.on_packet(size)

    # -- inspection -----------------------------------------------------

    @property
    def open_buffers(self) -> int:
        """How many write buffers currently hold undrained stores."""
        return len(self._open)

    @property
    def histogram(self) -> dict:
        """Mapping of packet size (bytes) -> count of packets emitted."""
        return dict(self._histogram)

    def mean_packet_bytes(self) -> float:
        if not self.packets_emitted:
            return 0.0
        return self.bytes_emitted / self.packets_emitted

    def reset(self) -> None:
        """Drop open buffers and statistics."""
        self._open.clear()
        self.packets_emitted = 0
        self.bytes_emitted = 0
        self._histogram.clear()


def writebuffer_model(
    num_buffers: int = 6,
    block_bytes: int = BLOCK_BYTES_DEFAULT,
    on_packet: Optional[Callable[[int], None]] = None,
):
    """The write-buffer model for a new interface.

    Selects the flat-bookkeeping :class:`VectorWriteBufferModel` under
    the fast path and the reference :class:`WriteBufferModel` under
    ``REPRO_FASTPATH=0`` / ``--no-fastpath`` — same packet stream
    either way, per the fastpath byte-identity discipline.
    """
    import repro.fastpath

    if repro.fastpath.enabled():
        return VectorWriteBufferModel(num_buffers, block_bytes, on_packet)
    return WriteBufferModel(num_buffers, block_bytes, on_packet)


def packets_for_stores(
    stores: Iterable[Tuple[int, int]],
    num_buffers: int = 6,
    block_bytes: int = BLOCK_BYTES_DEFAULT,
    barrier_between: bool = False,
) -> List[int]:
    """Convenience: run a store stream through a fresh model.

    Args:
        stores: iterable of (address, length) stores.
        barrier_between: insert a barrier after every store (models
            fully serialized writes; used in tests).

    Returns the list of emitted packet sizes in order.
    """
    sizes: List[int] = []
    model = WriteBufferModel(num_buffers, block_bytes, on_packet=sizes.append)
    for address, length in stores:
        model.write(address, length)
        if barrier_between:
            model.barrier()
    model.barrier()
    return sizes
