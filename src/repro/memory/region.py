"""Instrumented byte-addressable memory regions.

A :class:`MemoryRegion` is the unit of data the paper's system deals
in: the database, the undo log, the mirror copy, the redo-log circular
buffer and the allocator heap are all regions. Regions support write
observers — callables invoked on every write — which is exactly the
hook "write doubling" needs: the replication layer registers an
observer that forwards each write into Memory Channel I/O space.

Every write carries a :class:`WriteCategory` so the traffic tables
(Tables 2, 5 and 7) can be measured rather than estimated.

The backing store is a ``memoryview`` over a private anonymous
``mmap`` of the region's size: zero-filled and mapped lazily by the
kernel, so a region holds host memory only for the pages a run writes,
and unmapped when the region is freed (a freed ``malloc`` buffer would
go back to the C heap and come back to the next region already
resident). A region of at least 4 MiB is advised onto huge pages, as
numpy advises its own buffers. Every bulk move is a memoryview slice
assignment — a C ``memmove`` — and :meth:`MemoryRegion.load_snapshot`
writes only the pages that differ. The read-then-write ``copy_from``,
page-loop ``fill``, full-copy ``load_snapshot`` and ``bytearray``
backing this replaced live on as ``tests/oracles/region_reference.py``.
"""

from __future__ import annotations

import enum
import mmap
import struct
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import CrashedError, OutOfBoundsError


class WriteCategory(enum.Enum):
    """Classification of a write for traffic accounting.

    Matches the paper's breakdown: *modified data* are in-place
    database writes made by the transaction; *undo data* are copies
    made to preserve pre-images (undo-log bodies, mirror updates);
    *meta-data* is everything else (allocator bookkeeping, list
    pointers, record headers, commit flags, log pointers).
    """

    MODIFIED = "modified"
    UNDO = "undo"
    META = "meta"

    # Identity hash (members are singletons, so equality already is
    # identity): Enum.__hash__ is a Python-level method, and traffic
    # accounting hashes a category four times per doubled store.
    __hash__ = object.__hash__


#: The category of every word store, bound once: looking the member up
#: on each observed store is measurable on the doubling path.
_META = WriteCategory.META


#: A write observer: called as ``fn(offset, length, category)`` after
#: every write. Plain arguments, no event object — the per-store
#: allocation matters on the write-doubling hot path (millions of calls
#: per experiment run).
Observer = Callable[[int, int, WriteCategory], None]

#: An observer's batch counterpart: offered a whole ``write_words``
#: batch, ``(offset, value)`` pairs, before the words land (so it
#: never reads them back from the region). It takes the batch — doing
#: exactly what its observer's per-store calls would — and returns
#: True, or returns False having done nothing.
WordsObserver = Callable[[Sequence[Tuple[int, int]]], bool]


#: The machine word of every in-region structure (allocator fields,
#: list links, control words, ring pointers): little-endian, 8 bytes.
_U64 = struct.Struct("<Q")
_unpack_u64 = _U64.unpack_from
_pack_u64 = _U64.pack_into

#: numpy advises a buffer of at least this many bytes onto transparent
#: huge pages; a region of that size gets the same advice, so the page
#: size and fault pattern of every region stay what numpy gave them.
_HUGEPAGE_BYTES = 4 << 20
_MADV_HUGEPAGE = getattr(mmap, "MADV_HUGEPAGE", None)


class MemoryRegion:
    """A contiguous, bounds-checked byte array with write observers."""

    __slots__ = (
        "name",
        "size",
        "base",
        "data",
        "_observers",
        "_takers",
        "_crashed",
        "writes_observed",
        "bytes_written",
    )

    def __init__(self, name: str, size: int):
        if size <= 0:
            raise ValueError(f"region {name!r} must have positive size")
        self.name = name
        self.size = size
        self.base = 0  # until an AddressSpace places the region
        buffer = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        if size >= _HUGEPAGE_BYTES and _MADV_HUGEPAGE is not None:
            try:
                buffer.madvise(_MADV_HUGEPAGE)
            except OSError:  # advice the kernel refuses changes nothing
                pass
        self.data = memoryview(buffer)
        self._observers: List[Observer] = []
        # Per observer, its batch counterpart (see write_words) or None.
        self._takers: List[Optional[WordsObserver]] = []
        self._crashed = False
        self.writes_observed = 0
        self.bytes_written = 0

    # -- observation ----------------------------------------------------

    def add_observer(
        self, observer: Observer, words: Optional[WordsObserver] = None
    ) -> None:
        """Register a callable invoked as ``fn(offset, length,
        category)`` after every write, and optionally its batch
        counterpart ``words`` for :meth:`write_words`."""
        self._observers.append(observer)
        self._takers.append(words)

    def remove_observer(self, observer: Observer) -> None:
        index = self._observers.index(observer)
        del self._observers[index]
        del self._takers[index]

    # -- access ----------------------------------------------------------

    def _check_bounds(self, offset: int, length: int) -> None:
        if self._crashed:
            raise CrashedError(
                f"region {self.name!r} is unavailable: its node crashed "
                f"(Rio preserves the contents until reboot)"
            )
        if offset < 0 or length < 0 or offset + length > self.size:
            raise OutOfBoundsError(self.name, offset, length, self.size)

    def write(
        self,
        offset: int,
        data: bytes,
        category: WriteCategory = WriteCategory.MODIFIED,
    ) -> None:
        """Write ``data`` at ``offset`` and notify observers."""
        length = len(data)
        if length == 0:
            return
        # Fused precondition: the common case (healthy region, in-bounds
        # store) clears every check with one branch. length >= 1 here,
        # so the negative-length clause of _check_bounds cannot fire
        # and the fallthrough raises the exception it would.
        if self._crashed or offset < 0 or offset + length > self.size:
            self._check_bounds(offset, length)
        self.data[offset : offset + length] = data
        self.writes_observed += 1
        self.bytes_written += length
        if self._observers:
            for observer in self._observers:
                observer(offset, length, category)

    def read(self, offset: int, length: int) -> bytes:
        """Return ``length`` bytes starting at ``offset``."""
        # Fused precondition, as in write.
        if self._crashed or offset < 0 or length < 0 or offset + length > self.size:
            self._check_bounds(offset, length)
        return bytes(self.data[offset : offset + length])

    def read_u64(self, offset: int) -> int:
        """The little-endian 8-byte word at ``offset``: :meth:`read`'s
        checks, decoded straight from the backing buffer."""
        if self._crashed or offset < 0 or offset + 8 > self.size:
            self._check_bounds(offset, 8)
        return _unpack_u64(self.data, offset)[0]

    def write_u64(self, offset: int, value: int) -> None:
        """Store ``value`` as a little-endian 8-byte word at ``offset``.

        Exactly ``write(offset, pack("<Q", value), META)`` — same
        checks, statistics and observer calls — encoded straight into
        the backing buffer."""
        # Negative or too wide. pack_into would notice only after
        # zeroing the field, where pack() touches nothing.
        if value >> 64:
            raise struct.error("argument out of range")
        if self._crashed or offset < 0 or offset + 8 > self.size:
            self._check_bounds(offset, 8)
        _pack_u64(self.data, offset, value)
        self.writes_observed += 1
        self.bytes_written += 8
        if self._observers:
            for observer in self._observers:
                observer(offset, 8, _META)

    def write_words(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Store each ``(offset, value)`` pair as a word, in order.

        Exactly :meth:`write_u64` per pair. A live region with no
        observer packs each word as it passes the checks, and counts
        the words that landed together; at a word that fails one, the
        rest of the batch is the per-store loop, so that word raises in
        :meth:`write_u64` with every word before it landed and counted.
        A live region with one observer that has a batch counterpart
        offers it a non-empty batch whose every pair is in bounds and
        in range, in one call *before* the words land, so one that
        declines has nothing to undo; if it takes the batch, the words
        land and count together. Anything else *is* the per-store loop,
        so every observer sees store *k* after exactly the stores
        before it and every error surfaces at its own store. (With two
        observers, one could decline after the other took the batch,
        which no per-store order would show.)"""
        size = self.size
        takers = self._takers
        if not takers and not self._crashed:
            data = self.data
            stores = 0
            for offset, value in pairs:
                if value >> 64 or offset < 0 or offset + 8 > size:
                    pairs = pairs[stores:]
                    break
                _pack_u64(data, offset, value)
                stores += 1
            else:
                pairs = ()
            self.writes_observed += stores
            self.bytes_written += 8 * stores
        elif (pairs and not self._crashed and len(takers) == 1
              and takers[0] is not None):
            for offset, value in pairs:
                if value >> 64 or offset < 0 or offset + 8 > size:
                    break
            else:
                if takers[0](pairs):
                    data = self.data
                    for offset, value in pairs:
                        _pack_u64(data, offset, value)
                    stores = len(pairs)
                    self.writes_observed += stores
                    self.bytes_written += 8 * stores
                    return
        for offset, value in pairs:
            self.write_u64(offset, value)

    def write_run(self, offset: int, parts) -> None:
        """Store ``parts`` — ``(data, category)`` pairs — end to end
        from ``offset``: a ``writev``.

        Exactly ``write(part)`` per part in order. A plain region
        (alive, unobserved) with the whole run in bounds
        takes it as one slice assignment, counted as one write per
        non-empty part; anything else *is* the per-part loop, so every
        observer sees store *k* after exactly the bytes before it and
        every error surfaces at its own store."""
        parts = tuple(parts)  # read twice below; may be a one-shot iterator
        if not (self._crashed or self._observers):
            stored = []
            total = 0
            for data, _ in parts:
                if data:
                    stored.append(data)
                    total += len(data)
            if 0 <= offset and offset + total <= self.size:
                self.data[offset : offset + total] = b"".join(stored)
                self.writes_observed += len(stored)
                self.bytes_written += total
                return
        for data, category in parts:
            self.write(offset, data, category)
            offset += len(data)

    def view(self, offset: int, length: int) -> memoryview:
        """A read-only zero-copy view of ``[offset, offset+length)``.

        Same bounds and crash checks as :meth:`read`; callers that only
        scan the bytes (the diff kernels) avoid the copy."""
        if self._crashed or offset < 0 or length < 0 or offset + length > self.size:
            self._check_bounds(offset, length)
        return memoryview(self.data).toreadonly()[offset : offset + length]

    def copy_within(self, src_offset: int, dst_offset: int, length: int) -> None:
        """bcopy inside the region (observers see the destination
        write, an UNDO one); the ranges may overlap."""
        self.copy_from(self, src_offset, dst_offset, length)

    def copy_from(
        self,
        src: "MemoryRegion",
        src_offset: int,
        dst_offset: int,
        length: int,
        category: WriteCategory = WriteCategory.UNDO,
    ) -> None:
        """bcopy from another region (observers see the destination
        write).

        Exactly ``self.write(dst_offset, src.read(src_offset, length),
        category)`` — same checks in the same order, same observer
        notifications, same statistics — with the bytes moved by one
        memoryview slice assignment (``memmove``: ``src is self`` with
        overlapping ranges is safe) instead of through an intermediate
        ``bytes``.
        """
        # read's and then write's fused precondition (see write).
        if (
            src._crashed
            or src_offset < 0
            or length < 0
            or src_offset + length > src.size
        ):
            src._check_bounds(src_offset, length)
        if length == 0:
            return
        if self._crashed or dst_offset < 0 or dst_offset + length > self.size:
            self._check_bounds(dst_offset, length)
        self.data[dst_offset : dst_offset + length] = src.data[
            src_offset : src_offset + length
        ]
        self.writes_observed += 1
        self.bytes_written += length
        if self._observers:
            for observer in self._observers:
                observer(dst_offset, length, category)

    def poke(self, offset: int, data: bytes) -> None:
        """Setup-phase write: stores ``data`` without notifying
        observers or counting statistics. Used to load initial database
        images, which the paper's traffic tables do not count (the
        initial image reaches the backup at mapping time, not through
        the transaction stream)."""
        self._check_bounds(offset, len(data))
        self.data[offset : offset + len(data)] = data

    def fill(self, value: int = 0) -> None:
        """Set every byte to ``value`` without notifying observers.

        Used for initialization, which the paper does not count as
        replication traffic.
        """
        if not 0 <= value <= 255:
            raise ValueError(f"fill value {value} is not a byte")
        data = self.data
        data[0] = value
        filled = 1
        while filled < self.size:  # each copy doubles the filled prefix
            step = min(filled, self.size - filled)
            data[filled : filled + step] = data[:step]
            filled += step

    def snapshot(self) -> bytes:
        """An immutable copy of the entire region's contents."""
        return bytes(self.data)

    def load_snapshot(self, image) -> None:
        """Make the region's contents ``image`` — a bytes-like object
        of the region's size: a :meth:`snapshot`, or another region's
        :meth:`view` — without observers or statistics.

        Only the pages (``mmap.PAGESIZE``) that differ are written, so
        an image equal to what the region holds costs no host memory.
        A crashed region refuses the load, as :meth:`poke` does."""
        if self._crashed:
            self._check_bounds(0, 0)
        image = memoryview(image).cast("B")
        if len(image) != self.size:
            raise ValueError(
                f"image of {len(image)} bytes does not match region "
                f"{self.name!r} of size {self.size}"
            )
        data = self.data
        page = mmap.PAGESIZE
        for start in range(0, self.size, page):
            chunk = image[start : start + page].tobytes()
            if data[start : start + page].tobytes() != chunk:
                data[start : start + page] = chunk

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}"
            f"({self.name!r}, size={self.size}, base={self.base:#x})"
        )


#: The name the frozen ledger probes construct regions through
#: (``benchmarks/ledger/probes.py``); nothing under ``src/`` calls it.
memory_region = MemoryRegion
