"""The write-buffer model as first written: the oracle for
:class:`repro.hardware.writebuffer.WriteBufferModel`.

One :class:`_OpenBuffer` object per in-flight block in an
``OrderedDict`` (FIFO displacement pops the oldest), one
:meth:`~ReferenceWriteBufferModel._write_block` call per block a store
touches, and a batch is nothing but its stores fed one at a time — no
run coalescing, no interior-block arithmetic. Production replaced this
loop with flat bitmask bookkeeping; the Hypothesis suites
(``tests/properties/test_writebuffer_properties.py``,
``test_fastpath_properties.py``, ``test_redo_log_properties.py``) hold
the two to the same packet sequence, histogram and open-buffer state
on random schedules and geometries, and ``tests/fastpath/
test_equivalence.py`` substitutes this model into whole replicated
systems.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

from repro.hardware.writebuffer import BLOCK_BYTES_DEFAULT, WriteBufferModel


@dataclass
class _OpenBuffer:
    """One in-flight write buffer covering a 32-byte-aligned block."""

    block: int
    written: int = 0  # bitmask over bytes in the block


class ReferenceWriteBufferModel:
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

    def write_batch(self, stores: Iterable[Tuple[int, object]]) -> None:
        """A batch is its stores: :meth:`write` once per store, in
        order — a run entry's ``(address, part_lengths)`` once per
        part, end to end."""
        for address, length in stores:
            if isinstance(length, tuple):
                for part in length:
                    self.write(address, part)
                    address += part
            else:
                self.write(address, length)

    def barrier(self) -> None:
        """Flush all open buffers (a memory barrier / commit point)."""
        open_ = self._open
        while open_:
            _, buffer = open_.popitem(last=False)
            self._emit(buffer)

    def _emit(self, buffer: _OpenBuffer) -> None:
        size = bin(buffer.written).count("1")
        if size == 0:
            return
        self.packets_emitted += 1
        self.bytes_emitted += size
        self._histogram[size] += 1
        if self.on_packet is not None:
            self.on_packet(size)

    def account_replayed(
        self, sizes: Iterable[int], total_bytes: int, counts
    ) -> None:
        """Credit packets computed without running :meth:`write` (see
        :meth:`repro.hardware.writebuffer.WriteBufferModel.
        account_replayed`), one sink call per packet: ``counts`` is
        only the sizes counted, so the oracle does not read it."""
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


def packets_for_stores(
    stores: Iterable[Tuple[int, int]],
    num_buffers: int = 6,
    block_bytes: int = BLOCK_BYTES_DEFAULT,
    barrier_between: bool = False,
) -> List[int]:
    """Run a store stream through a fresh production
    :class:`~repro.hardware.writebuffer.WriteBufferModel`.

    Args:
        stores: iterable of (address, length) stores.
        barrier_between: insert a barrier after every store (models
            fully serialized writes; used in tests).

    Returns the list of emitted packet sizes in order.
    """
    sizes: List[int] = []
    model = WriteBufferModel(num_buffers, block_bytes, on_packet=sizes.append)
    for address, length in stores:
        model.write_batch([(address, length)])
        if barrier_between:
            model.barrier()
    model.barrier()
    return sizes
