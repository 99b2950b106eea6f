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

from collections import Counter, OrderedDict
from typing import List, Tuple

from repro.hardware.writebuffer import WriteBufferModel

#: One cached drain: (packet sizes in emission order, total bytes, the
#: sizes counted as ``(size, packets)`` pairs in first-appearance order).
CacheEntry = Tuple[Tuple[int, ...], int, Tuple[Tuple[int, int], ...]]

#: Bound on distinct canonical schedules kept; the least-recently-
#: inserted entry is evicted beyond it. The paper's workloads need a
#: few thousand (transaction shapes times block alignments).
_MAX_ENTRIES = 65536


class PacketReplayCache:
    """Memoizes barrier-terminated store schedules -> packet sequences,
    at most :data:`_MAX_ENTRIES` of them."""

    def __init__(self):
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def canonical_key(
        ops: List[Tuple[int, object]], num_buffers: int, block_bytes: int
    ) -> tuple:
        """The schedule's shape: per-block stores with blocks renamed
        to first-appearance order (addresses mod block geometry). A
        run entry (``write_batch``'s ``(address, part_lengths)``) is
        keyed as its stores, so its key is the per-store schedule's.

        ``block_bytes`` is a power of two (the write buffers refuse any
        other), so a store inside one block — nearly every doubled
        store — is keyed by a shift and a mask; one that crosses a
        block edge walks its blocks. The per-block loop this replaced
        is ``tests/oracles/replay_key_reference.py``."""
        seen: dict = {}
        parts: List[int] = [num_buffers, block_bytes]
        append = parts.append
        shift = block_bytes.bit_length() - 1
        mask = block_bytes - 1
        for address, length in ops:
            if length.__class__ is not int:
                # Start over on the schedule with every run entry
                # split into its stores.
                stores = []
                for address, length in ops:
                    if length.__class__ is int:
                        stores.append((address, length))
                        continue
                    for part in length:
                        stores.append((address, part))
                        address += part
                return PacketReplayCache.canonical_key(
                    stores, num_buffers, block_bytes)
            lo = address & mask
            hi = lo + length
            if 0 < length and hi <= block_bytes:
                block = address >> shift
                canonical = seen.get(block)
                if canonical is None:
                    canonical = seen[block] = len(seen)
                append(canonical)
                append(lo)
                append(hi)
                continue
            end = address + length  # an empty store adds no span
            while address < end:
                block = address >> shift
                base = block << shift
                lo = address - base
                hi = end - base
                if hi > block_bytes:
                    hi = block_bytes
                canonical = seen.get(block)
                if canonical is None:
                    canonical = seen[block] = len(seen)
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
        """Packet sizes (with their byte total and their counts) that
        ``ops`` followed by a barrier drain into, starting from empty
        write buffers."""
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
        entry = (tuple(sizes), model.bytes_emitted, tuple(Counter(sizes).items()))
        self._entries[key] = entry
        if len(self._entries) > _MAX_ENTRIES:
            self._entries.popitem(last=False)
        return entry


#: Process-wide cache shared by every Memory Channel interface. Cells
#: driven in the same process (or pool worker) warm it for each other.
GLOBAL_REPLAY_CACHE = PacketReplayCache()
