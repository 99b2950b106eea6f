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

from collections import Counter
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


class WriteBufferModel:
    """Folds a store stream into Memory Channel packets.

    Args:
        num_buffers: number of concurrent write buffers (6 on the EV5.6).
        block_bytes: buffer width (32 bytes).
        on_packet: optional callback invoked with each emitted packet
            size in bytes; used by the SAN layer to account link time.

    The bookkeeping is flat: open buffers are bare ``int`` bitmasks in
    a plain insertion-ordered dict (insertion order is the FIFO), and
    multi-block stores drain their interior full blocks with
    run-length arithmetic instead of a per-block loop. Contiguous
    streams (the Version 3 log discipline that motivates the model)
    touch the dict at most twice per store — the partial head and
    tail — no matter how many blocks they span. The one-object-per-
    buffer loop this replaced is ``tests/oracles/
    writebuffer_reference.py``; ``tests/properties/
    test_writebuffer_properties.py`` holds the two to the same packet
    stream on random schedules. What keeps them equal:

    * A store is split into head/interior/tail per block in address
      order, exactly the per-block loop's order.
    * The interior bulk path only fires when no interior block is
      already open; then the loop would evict at most one oldest
      buffer (for the first interior block, if at capacity) and emit
      one full packet per block — pure arithmetic here. Any overlap
      takes the per-block path.
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
        """Mark bytes [lo, hi) of ``block`` written, draining what
        that fills or displaces."""
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
        """Credit packets computed (or looked up) without running
        :meth:`write` — a replay-cache hit, the arithmetic fragmented
        lane — to the model's own statistics. The caller is responsible
        for the schedule having started *and* ended with no open
        buffers (a barrier-terminated batch)."""
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


#: The name the frozen ledger probes construct models through
#: (``benchmarks/ledger/probes.py``); nothing under ``src/`` calls it.
writebuffer_model = WriteBufferModel


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
