"""Allocators over memory regions.

Two allocators reflect the structural regimes the paper compares
(Version 3's inline log needs none: it advances a volatile pointer):

* :class:`HeapAllocator` — a boundary-tag, first-fit free-list heap,
  as used by Version 0 (Vista) for undo-log records and pre-image
  buffers. All bookkeeping (headers, footers, free-list links, the
  list head) is stored *in the region* via categorized META writes —
  in a write-through replica every one of those stores crosses the
  SAN, which is how the straightforward implementation ends up
  shipping 6.7 GB of metadata for Debit-Credit (Table 2).
* :class:`ArrayAllocator` — fixed-size records allocated by
  incrementing an array index, as used by Versions 1 and 2 for their
  set_range coordinate arrays.

Integers are stored little-endian in 8-byte fields so the structures
are real bytes a recovery procedure can walk. A field read is one
:meth:`MemoryRegion.read_u64`; a heap operation (:meth:`HeapAllocator.malloc`,
:meth:`~HeapAllocator.free`, formatting) computes its field stores and
issues them as one :meth:`MemoryRegion.write_words` batch, META
category. Each is still one instrumented 8-byte region write, in the
order the per-field stores made them — observers, hence write
doubling, see every one — the batch only saves the calls.
"""

from __future__ import annotations

from repro.errors import AllocationError
from repro.memory.region import MemoryRegion

HEADER_BYTES = 16  # size (8) | flags (8)
FOOTER_BYTES = 16
MIN_BLOCK = 64  # room for header + footer + two list pointers
_NEXT = 16  # free-list links, inside a free block
_PREV = 24
_FREE = 1
_USED = 0
NULL = 0  # no block; valid block offsets are always > 0


class HeapAllocator:
    """Boundary-tag first-fit heap with an in-region free list.

    The heap spans its whole region. Layout:
        [0:8]    free-list head (block offset, NULL when empty)
        [8:32]   reserved
        [32:]    blocks

    Block layout:
        [0:8]    block size (total, including header/footer)
        [8:16]   flags (1 = free)
        [16:24]  next free block (only meaningful while free)
        [24:32]  prev free block (only meaningful while free)
        ...payload...
        [-16:-8] block size (footer copy, for coalescing)
        [-8:]    flags (footer copy)
    """

    _HEAD_OFFSET = 0
    _BLOCKS_START = 32

    def __init__(self, region: MemoryRegion, fresh: bool = True):
        self.region = region
        self.size = region.size
        if self.size < self._BLOCKS_START + MIN_BLOCK:
            raise AllocationError(
                f"heap of {self.size} bytes is too small (min "
                f"{self._BLOCKS_START + MIN_BLOCK})"
            )
        self.allocs = 0
        self.frees = 0
        self.splits = 0
        self.coalesces = 0
        self.walk_steps = 0
        if fresh:
            self._format()

    # -- free-list manipulation -------------------------------------------
    #
    # An operation queues its word stores, in the order the fields
    # change, and issues them as one region batch: the unlink of the
    # block it takes or merges, then the block's header and footer,
    # then its push onto the list head. Nothing lands before the batch,
    # so where a step reads a list word an earlier step of the same
    # operation moved, it reads the queued value, not the region.

    def _unlink(self, block: int, stores: list, links: dict) -> None:
        """Queue the stores that take free ``block`` out of the list;
        ``links`` maps each list word queued so far to its new value.
        (Only ``free`` unlinks twice, when it merges both neighbours.)"""
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

    def _format(self) -> None:
        """Initialize the heap as one big free block."""
        head, first = self._HEAD_OFFSET, self._BLOCKS_START
        end = self.size
        size = end - first
        self.region.write_words((
            (head, NULL),
            (first, size), (first + 8, _FREE),
            (end - 16, size), (end - 8, _FREE),
            (first + _NEXT, NULL), (first + _PREV, NULL),
            (head, first),
        ))

    # -- public API ---------------------------------------------------------

    def malloc(self, nbytes: int) -> int:
        """Allocate ``nbytes`` of payload; returns the payload's region
        offset."""
        if nbytes <= 0:
            raise AllocationError(f"cannot allocate {nbytes} bytes")
        # The block, header and footer included, rounded up to 16 bytes.
        need = max(MIN_BLOCK, (nbytes + HEADER_BYTES + FOOTER_BYTES + 15) & ~15)
        read = self.region.read_u64
        head = self._HEAD_OFFSET
        block = first = read(head)
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
        # Unlink the block; ``first`` becomes the list's head after it.
        prev = read(block + _PREV)
        nxt = read(block + _NEXT)
        if prev != NULL:
            stores = [(prev + _NEXT, nxt)]
        else:
            stores = [(head, nxt)]
            first = nxt
        if nxt != NULL:
            stores.append((nxt + _PREV, prev))
        remainder = size - need
        end = block + size
        if remainder >= MIN_BLOCK:
            # Split: the block's tags, the rest's tags, push the rest.
            self.splits += 1
            rest = block + need
            stores += (
                (block, need), (block + 8, _USED),
                (rest - 16, need), (rest - 8, _USED),
                (rest, remainder), (rest + 8, _FREE),
                (end - 16, remainder), (end - 8, _FREE),
                (rest + _NEXT, first), (rest + _PREV, NULL),
            )
            if first != NULL:
                stores.append((first + _PREV, rest))
            stores.append((head, rest))
        else:
            stores += (
                (block, size), (block + 8, _USED),
                (end - 16, size), (end - 8, _USED),
            )
        self.region.write_words(stores)
        self.allocs += 1
        return block + HEADER_BYTES

    def free(self, payload_offset: int) -> None:
        """Free an allocation returned by :meth:`malloc`."""
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

        # The merged block's tags, then push it.
        head = self._HEAD_OFFSET
        first = links[head] if head in links else read(head)
        end = block + size
        stores += (
            (block, size), (block + 8, _FREE),
            (end - 16, size), (end - 8, _FREE),
            (block + _NEXT, first), (block + _PREV, NULL),
        )
        if first != NULL:
            stores.append((first + _PREV, block))
        stores.append((head, block))
        self.region.write_words(stores)
        self.frees += 1


class ArrayAllocator:
    """Fixed-size records allocated by incrementing an array index, as
    in Versions 1 and 2 ("the linked list structure of the undo log is
    replaced by an array from which consecutive records are allocated
    by simply incrementing the array index").

    The array spans its whole region. Layout: [0:8] count, [8:] records.
    """

    #: Where record 0 starts; record ``i`` is at ``DATA_START + i * record_bytes``.
    DATA_START = 8

    def __init__(
        self,
        region: MemoryRegion,
        record_bytes: int,
        fresh: bool = True,
    ):
        if record_bytes <= 0:
            raise AllocationError("record size must be positive")
        self.region = region
        self.record_bytes = record_bytes
        self.capacity = (region.size - self.DATA_START) // record_bytes
        if self.capacity < 1:
            raise AllocationError("array area too small for one record")
        self.allocs = 0
        if fresh:
            self._set_count(0)

    def _set_count(self, value: int) -> None:
        self.region.write_u64(0, value)

    @property
    def count(self) -> int:
        return self.region.read_u64(0)

    def push(self) -> int:
        """Allocate the next record; returns its region-relative offset."""
        region = self.region
        count = region.read_u64(0)
        if count >= self.capacity:
            raise AllocationError(
                f"array allocator full ({self.capacity} records)"
            )
        region.write_u64(0, count + 1)
        self.allocs += 1
        return self.DATA_START + count * self.record_bytes

    def truncate(self) -> None:
        """Move the index back to 0, de-allocating every record."""
        self._set_count(0)
