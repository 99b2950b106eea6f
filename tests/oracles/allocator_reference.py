"""The heap allocator's operations as first written: the oracle for
:class:`repro.memory.allocator.HeapAllocator`.

Production ``malloc`` and ``free`` build their word batch in
straight-line code. This subclass keeps what that replaced — each
operation composed from ``_unlink`` (take a free block out of the
list), ``_push`` (put one at its head) and ``_tags`` (a block's header
and footer stores), sharing a ``links`` map of the list words queued so
far — and formatting as the same helpers' composition, and inherits
everything else, so the two differ in exactly the code under test.
``tests/properties/test_allocator_properties.py`` drives both with
random malloc/free scripts and requires the same stores in the same
order — formatting's too — the same offsets, errors and counters.
"""

from __future__ import annotations

from repro.errors import AllocationError
from repro.memory.allocator import (
    FOOTER_BYTES,
    HEADER_BYTES,
    MIN_BLOCK,
    NULL,
    HeapAllocator,
    _FREE,
    _NEXT,
    _PREV,
    _USED,
)


def _align16(n: int) -> int:
    return (n + 15) & ~15


def _tags(block: int, size: int, flags: int) -> tuple:
    """The stores of a block's header, then its footer copy."""
    return (
        (block, size),
        (block + 8, flags),
        (block + size - 16, size),
        (block + size - 8, flags),
    )


class ReferenceHeapAllocator(HeapAllocator):
    """A heap whose operations are composed from list helpers."""

    # An operation queues its word stores, in the order the fields
    # change, and issues them as one region batch. ``links`` maps each
    # list word (a link or the head) queued so far to its new value:
    # where a later step of the same operation reads a link an earlier
    # step moved, it reads it there, not in the region.

    def _unlink(self, block: int, stores: list, links: dict) -> None:
        """Queue the stores that take free ``block`` out of the list."""
        read = self.region.read_u64
        at = block + _PREV
        prev = links[at] if at in links else read(at)
        at = block + _NEXT
        nxt = links[at] if at in links else read(at)
        at = prev + _NEXT if prev != NULL else self._HEAD_OFFSET
        stores.append((at, nxt))
        links[at] = nxt
        if nxt != NULL:
            stores.append((nxt + _PREV, prev))
            links[nxt + _PREV] = prev

    def _push(self, block: int, stores: list, links: dict) -> None:
        """Queue the stores that put ``block`` at the head of the list."""
        at = self._HEAD_OFFSET
        head = links[at] if at in links else self.region.read_u64(at)
        stores += ((block + _NEXT, head), (block + _PREV, NULL))
        if head != NULL:
            stores.append((head + _PREV, block))
        stores.append((at, block))
        links[at] = block

    def _format(self) -> None:
        first = self._BLOCKS_START
        stores = [(self._HEAD_OFFSET, NULL)]
        stores += _tags(first, self.size - self._BLOCKS_START, _FREE)
        self._push(first, stores, {self._HEAD_OFFSET: NULL})
        self.region.write_words(stores)

    def malloc(self, nbytes: int) -> int:
        if nbytes <= 0:
            raise AllocationError(f"cannot allocate {nbytes} bytes")
        need = max(MIN_BLOCK, _align16(nbytes + HEADER_BYTES + FOOTER_BYTES))
        read = self.region.read_u64
        block = read(self._HEAD_OFFSET)
        while block != NULL:
            self.walk_steps += 1
            size = read(block)
            if size >= need:
                break
            block = read(block + _NEXT)
        if block == NULL:
            raise AllocationError(
                f"heap exhausted allocating {nbytes} bytes "
                f"(heap size {self.size})"
            )
        stores: list = []
        links: dict = {}
        self._unlink(block, stores, links)
        remainder = size - need
        if remainder >= MIN_BLOCK:
            self.splits += 1
            rest = block + need
            stores += _tags(block, need, _USED)
            stores += _tags(rest, remainder, _FREE)
            self._push(rest, stores, links)
        else:
            stores += _tags(block, size, _USED)
        self.region.write_words(stores)
        self.allocs += 1
        return block + HEADER_BYTES

    def free(self, payload_offset: int) -> None:
        block = payload_offset - HEADER_BYTES
        if block < self._BLOCKS_START or block >= self.size:
            raise AllocationError(f"free of invalid offset {payload_offset}")
        read = self.region.read_u64
        if read(block + 8) != _USED:
            raise AllocationError(f"double free at offset {payload_offset}")
        size = read(block)
        stores: list = []
        links: dict = {}

        # Coalesce with the following block if it is free.
        nxt = block + size
        if nxt + MIN_BLOCK <= self.size and read(nxt + 8) == _FREE:
            self.coalesces += 1
            self._unlink(nxt, stores, links)
            size += read(nxt)

        # Coalesce with the preceding block if it is free.
        if block > self._BLOCKS_START:
            if read(block - 8) == _FREE:
                prev_size = read(block - 16)
                prev = block - prev_size
                self.coalesces += 1
                self._unlink(prev, stores, links)
                block = prev
                size += prev_size

        stores += _tags(block, size, _FREE)
        self._push(block, stores, links)
        self.region.write_words(stores)
        self.frees += 1
