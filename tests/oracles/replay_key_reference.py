"""The per-block canonical key: the oracle for
:meth:`repro.fastpath.replay.PacketReplayCache.canonical_key`.

Every store walks its blocks one at a time, dividing by the block
size; the cache's key takes a store inside one block by a shift and a
mask instead. ``tests/properties/test_fastpath_properties.py`` holds
the two to equal keys on random schedules, so the cache's contents and
hit counts cannot move.
"""

from __future__ import annotations

from typing import List, Tuple


def canonical_key(
    ops: List[Tuple[int, object]], num_buffers: int, block_bytes: int
) -> tuple:
    """The schedule's shape: per-block stores with blocks renamed to
    first-appearance order (addresses mod block geometry). A run entry
    (``(address, part_lengths)``) is keyed as its stores."""
    seen: dict = {}
    parts: List[int] = [num_buffers, block_bytes]
    append = parts.append
    for address, length in ops:
        if length.__class__ is not int:
            # Start over on the schedule with every run entry split
            # into its stores.
            stores = []
            for address, length in ops:
                if length.__class__ is int:
                    stores.append((address, length))
                    continue
                for part in length:
                    stores.append((address, part))
                    address += part
            return canonical_key(stores, num_buffers, block_bytes)
        end = address + length  # an empty store adds no span
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
