"""Instrumented byte-addressable memory regions.

A :class:`MemoryRegion` is the unit of data the paper's system deals
in: the database, the undo log, the mirror copy, the redo-log circular
buffer and the allocator heap are all regions. Regions support write
observers — callables invoked on every write — which is exactly the
hook "write doubling" needs: the replication layer registers an
observer that forwards each write into Memory Channel I/O space.

Every write carries a :class:`WriteCategory` so the traffic tables
(Tables 2, 5 and 7) can be measured rather than estimated.

The backing store is a ``memoryview`` over a numpy-allocated buffer:
numpy is the allocator (``calloc`` leaves untouched pages unmapped,
where a ``bytearray``'s memset touches every one) and ``fill``'s
memset, nothing more; every bulk move is a memoryview slice
assignment — a C ``memmove``. The read-then-write ``copy_from``,
page-loop ``fill`` and ``bytearray`` backing this replaced live on as
``tests/oracles/region_reference.py``.
"""

from __future__ import annotations

import enum
import struct
from typing import Callable, List, Optional

import numpy as _np

from repro.errors import CrashedError, OutOfBoundsError, ProtectionError


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


#: A write observer: called as ``fn(offset, length, category)`` after
#: every write. Plain arguments, no event object — the per-store
#: allocation matters on the write-doubling hot path (millions of calls
#: per experiment run).
Observer = Callable[[int, int, WriteCategory], None]


#: The machine word of every in-region structure (allocator fields,
#: list links, control words, ring pointers): little-endian, 8 bytes.
_U64 = struct.Struct("<Q")
_unpack_u64 = _U64.unpack_from
_pack_u64 = _U64.pack_into


class MemoryRegion:
    """A contiguous, bounds-checked byte array with write observers."""

    __slots__ = (
        "name",
        "size",
        "base",
        "data",
        "_observers",
        "_protected",
        "_crashed",
        "_window",
        "writes_observed",
        "bytes_written",
    )

    def __init__(self, name: str, size: int, base: int = 0):
        if size <= 0:
            raise ValueError(f"region {name!r} must have positive size")
        self.name = name
        self.size = size
        self.base = base
        self.data = memoryview(_np.zeros(size, dtype=_np.uint8))
        self._observers: List[Observer] = []
        self._protected = False
        self._crashed = False
        self._window: Optional[tuple] = None
        self.writes_observed = 0
        self.bytes_written = 0

    # -- observation ----------------------------------------------------

    def add_observer(self, observer: Observer) -> None:
        """Register a callable invoked as ``fn(offset, length,
        category)`` after every write."""
        self._observers.append(observer)

    def remove_observer(self, observer: Observer) -> None:
        self._observers.remove(observer)

    # -- protection (Rio semantics) --------------------------------------

    def protect(self) -> None:
        """Enable Rio-style VM protection: writes outside an open
        window raise :class:`ProtectionError`."""
        self._protected = True

    def unprotect(self) -> None:
        self._protected = False

    def open_window(self, offset: int, length: int) -> None:
        """Sanction writes to ``[offset, offset+length)`` while protected."""
        self._check_bounds(offset, length)
        self._window = (offset, offset + length)

    def close_window(self) -> None:
        self._window = None

    # -- access ----------------------------------------------------------

    def _check_bounds(self, offset: int, length: int) -> None:
        if self._crashed:
            raise CrashedError(
                f"region {self.name!r} is unavailable: its node crashed "
                f"(Rio preserves the contents until reboot)"
            )
        if offset < 0 or length < 0 or offset + length > self.size:
            raise OutOfBoundsError(self.name, offset, length, self.size)

    def _check_protection(self, offset: int, length: int) -> None:
        if not self._protected:
            return
        if self._window is None:
            raise ProtectionError(
                f"write to protected region {self.name!r} with no open window"
            )
        lo, hi = self._window
        if offset < lo or offset + length > hi:
            raise ProtectionError(
                f"write [{offset}, {offset + length}) outside open window "
                f"[{lo}, {hi}) of protected region {self.name!r}"
            )

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
        # Fused precondition: the common case (healthy, unprotected
        # region, in-bounds store) clears every check with one branch.
        # length >= 1 here, so the negative-length clause of
        # _check_bounds cannot fire and the fallthrough raises the
        # exact same exception the two-call reference sequence would.
        if (
            self._crashed
            or self._protected
            or offset < 0
            or offset + length > self.size
        ):
            self._check_bounds(offset, length)
            self._check_protection(offset, length)
        self.data[offset : offset + length] = data
        self.writes_observed += 1
        self.bytes_written += length
        if self._observers:
            for observer in self._observers:
                observer(offset, length, category)

    def read(self, offset: int, length: int) -> bytes:
        """Return ``length`` bytes starting at ``offset``."""
        self._check_bounds(offset, length)
        return bytes(self.data[offset : offset + length])

    def read_u64(self, offset: int) -> int:
        """The little-endian 8-byte word at ``offset``: :meth:`read`'s
        checks, decoded straight from the backing buffer."""
        if self._crashed or offset < 0 or offset + 8 > self.size:
            self._check_bounds(offset, 8)
        return _unpack_u64(self.data, offset)[0]

    def write_u64(
        self,
        offset: int,
        value: int,
        category: WriteCategory = WriteCategory.META,
    ) -> None:
        """Store ``value`` as a little-endian 8-byte word at ``offset``.

        Exactly ``write(offset, pack("<Q", value), category)`` — same
        checks, statistics and observer calls — encoded straight into
        the backing buffer."""
        # Negative or too wide. pack_into would notice only after
        # zeroing the field, where pack() touches nothing.
        if value >> 64:
            raise struct.error("argument out of range")
        if (
            self._crashed
            or self._protected
            or offset < 0
            or offset + 8 > self.size
        ):
            self._check_bounds(offset, 8)
            self._check_protection(offset, 8)
        _pack_u64(self.data, offset, value)
        self.writes_observed += 1
        self.bytes_written += 8
        if self._observers:
            for observer in self._observers:
                observer(offset, 8, category)

    def write_run(self, offset: int, parts) -> None:
        """Store ``parts`` — ``(data, category)`` pairs — end to end
        from ``offset``: a ``writev``.

        Exactly ``write(part)`` per part in order. A plain region
        (alive, unprotected, unobserved) with the whole run in bounds
        takes it as one slice assignment, counted as one write per
        non-empty part; anything else *is* the per-part loop, so every
        observer sees store *k* after exactly the bytes before it and
        every error surfaces at its own store."""
        parts = tuple(parts)  # read twice below; may be a one-shot iterator
        if not (
            self._crashed
            or self._protected
            or self._observers
        ):
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
        self._check_bounds(offset, length)
        return memoryview(self.data).toreadonly()[offset : offset + length]

    def copy_within(
        self,
        src_offset: int,
        dst_offset: int,
        length: int,
        category: WriteCategory = WriteCategory.UNDO,
    ) -> None:
        """bcopy inside the region (observers see the destination
        write); the ranges may overlap."""
        self.copy_from(self, src_offset, dst_offset, length, category)

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
        src._check_bounds(src_offset, length)
        if length == 0:
            return
        self._check_bounds(dst_offset, length)
        self._check_protection(dst_offset, length)
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
        _np.frombuffer(self.data, dtype=_np.uint8).fill(value)

    def snapshot(self) -> bytes:
        """An immutable copy of the entire region's contents."""
        return bytes(self.data)

    def load_snapshot(self, snapshot: bytes) -> None:
        """Restore contents captured by :meth:`snapshot` (no observers)."""
        if len(snapshot) != self.size:
            raise ValueError(
                f"snapshot of {len(snapshot)} bytes does not match region "
                f"{self.name!r} of size {self.size}"
            )
        self.data[:] = snapshot

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
