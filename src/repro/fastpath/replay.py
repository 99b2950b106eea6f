"""The per-transaction replay cache for Memory Channel packet formation.

Packet formation is a pure function: starting from empty write
buffers, a store schedule (an ordered list of ``(address, length)``
stores ended by a barrier) always drains into the same sequence of
packet sizes. Moreover the function only sees addresses *through the
block geometry*: renaming the 32-byte blocks consistently cannot
change which stores coalesce, which buffer is displaced (FIFO is
insertion-ordered, preserved by renaming) or how many bytes each
packet carries.

The deterministic workloads repeat a small set of transaction shapes,
so the same canonical schedule shows up thousands of times per run.
:class:`PacketReplayCache` canonicalizes a schedule — every touched
block is renamed to its order of first appearance, every store becomes
``(canonical block, lo, hi)`` — and memoizes the packet sequence the
write-buffer simulation produces for it. A hit replays the packets
into counters and traces without re-running the Python store loop.

Keys are exact, so a miss simply falls through to one real
simulation; the cache can never change a measured number, only skip
recomputing it. Equivalence is asserted by the Hypothesis property
suite (``tests/properties/test_fastpath_properties.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List, Tuple

from repro.hardware.writebuffer import WriteBufferModel

#: One cached drain: (packet sizes in emission order, total bytes).
CacheEntry = Tuple[Tuple[int, ...], int]


class PacketReplayCache:
    """Memoizes barrier-terminated store schedules -> packet sequences.

    Args:
        max_entries: bound on distinct canonical schedules kept; the
            least-recently-inserted entry is evicted beyond it. The
            paper's workloads need a few thousand (transaction shapes
            times block alignments), so the default is comfortable.
    """

    def __init__(self, max_entries: int = 65536):
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    @staticmethod
    def canonical_key(
        ops: Iterable[Tuple[int, int]], num_buffers: int, block_bytes: int
    ) -> tuple:
        """The schedule's shape: per-block stores with blocks renamed
        to first-appearance order (addresses mod block geometry)."""
        seen: dict = {}
        parts: List[int] = [num_buffers, block_bytes]
        append = parts.append
        for address, length in ops:
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
                canonical = seen.get(block)
                if canonical is None:
                    canonical = len(seen)
                    seen[block] = canonical
                append(canonical)
                append(lo)
                append(hi)
                address = base + block_bytes
        return tuple(parts)

    def drain_sizes(
        self,
        ops: List[Tuple[int, int]],
        num_buffers: int,
        block_bytes: int,
    ) -> CacheEntry:
        """Packet sizes (and their byte total) that ``ops`` followed by
        a barrier drain into, starting from empty write buffers."""
        key = self.canonical_key(ops, num_buffers, block_bytes)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        sizes: List[int] = []
        model = WriteBufferModel(num_buffers, block_bytes, on_packet=sizes.append)
        model.write_batch(ops)
        model.barrier()
        entry = (tuple(sizes), model.bytes_emitted)
        self._entries[key] = entry
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return entry


#: Process-wide cache shared by every Memory Channel interface. Cells
#: driven in the same process (or pool worker) warm it for each other.
GLOBAL_REPLAY_CACHE = PacketReplayCache()
