"""The transaction API and the engine base class.

The API is the one introduced by RVM and implemented by Vista
(Section 2.1): the transaction data is mapped into the server's
address space and manipulated with::

    begin_transaction()
    set_range(offset, length)   # declare a region the txn may modify
    ...in-place writes...
    commit_transaction()  /  abort_transaction()

Concurrency control is out of scope (the paper assumes a separate
layer), so an engine runs one transaction at a time; the SMP
experiments run independent engines on disjoint data, exactly as the
paper does (Section 8).

Commit is **1-safe** in replicated configurations: the call returns as
soon as the commit completes on the primary (Section 2.1).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    NoTransactionError,
    OutOfBoundsError,
    RangeNotDeclaredError,
    TransactionAlreadyActiveError,
)
from repro.memory.mapping import AddressSpace
from repro.memory.region import MemoryRegion, WriteCategory
from repro.memory.rio import RioMemory
from repro.vista.stats import AccessProfile, EngineCounters

MB = 1024 * 1024

#: Locality hints for set_range instrumentation (the cache model needs
#: to know whether a range is a random probe into the database or a
#: sequential append such as the Debit-Credit audit trail).
HINT_RANDOM = "random"
HINT_SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class EngineConfig:
    """Sizing and modelling parameters shared by all engine versions.

    Attributes:
        db_bytes: bytes actually allocated for the database region.
        nominal_db_bytes: database size the *cache and traffic models*
            assume; defaults to ``db_bytes``. Decoupling the two lets
            Table 8's 1 GB configuration run without allocating 1 GB —
            per-transaction operation counts do not depend on the
            allocated size, only offsets do.
        log_bytes: size of the undo-log/heap region (V0's heap, V3's
            inline log).
        range_records: capacity of V1/V2's set_range coordinate array.
        log_hot_bytes: the recycled hot prefix of V3's log, used as its
            cache working-set size (the log empties at every commit, so
            only this much is ever live).
        enforce_ranges: raise if a write is not covered by a declared
            set_range (RVM leaves this undefined; we default to strict).
        line_size: cache-line size for footprint accounting.
    """

    db_bytes: int = 8 * MB
    nominal_db_bytes: Optional[int] = None
    log_bytes: int = 2 * MB
    range_records: int = 4096
    log_hot_bytes: int = 64 * 1024
    enforce_ranges: bool = True
    line_size: int = 64

    @property
    def nominal(self) -> int:
        return self.nominal_db_bytes if self.nominal_db_bytes else self.db_bytes


class TransactionEngine(abc.ABC):
    """Base class for the four engine versions.

    Subclasses define :attr:`VERSION`, :meth:`region_specs`, and the
    ``_on_*`` hooks. All durable state lives in the regions, never in
    Python attributes, so that a crash can be simulated by rebuilding
    the engine over the same regions (``fresh=False``) and running
    :meth:`recover`.
    """

    VERSION: str = "base"
    TITLE: str = "base"

    #: regions that a passive backup must receive by write-through
    REPLICATED: Tuple[str, ...] = ()
    #: regions kept primary-local in the optimized passive scheme
    LOCAL: Tuple[str, ...] = ()

    def __init__(
        self,
        regions: Dict[str, MemoryRegion],
        config: EngineConfig,
        fresh: bool = True,
    ):
        self.config = config
        self.regions = regions
        self.db = regions["db"]
        self.control = regions["control"]
        self.counters = EngineCounters()
        self.profile = AccessProfile(line_size=config.line_size)
        for name, size in self.working_sets(config):
            self.profile.declare(name, size)
        self._active = False
        self._ranges: List[Tuple[int, int]] = []
        self._setup(fresh)

    # -- construction -----------------------------------------------------

    @classmethod
    def region_specs(cls, config: EngineConfig) -> Dict[str, int]:
        """Mapping of region name -> size for this version."""
        specs = {"db": config.db_bytes, "control": 4096}
        specs.update(cls._extra_region_specs(config))
        return specs

    @classmethod
    def _extra_region_specs(cls, config: EngineConfig) -> Dict[str, int]:
        return {}

    @classmethod
    def working_sets(cls, config: EngineConfig) -> Iterator[Tuple[str, int]]:
        """``(name, size)`` of each working set this version declares
        in its :class:`AccessProfile` — the one reader of
        ``config.nominal``, shared by the constructor, the driver's
        post-warm-up re-declare and the experiments' at-nominal view."""
        yield "db", config.nominal

    @classmethod
    def create(
        cls,
        rio: RioMemory,
        config: Optional[EngineConfig] = None,
        space: Optional[AddressSpace] = None,
        fresh: bool = True,
    ) -> "TransactionEngine":
        """Build the engine's regions in ``rio`` and construct it.

        When the regions already exist in ``rio`` (a reboot or a
        backup node), they are reused; pass ``fresh=False`` to attach
        without reinitializing so :meth:`recover` can run.
        """
        if config is None:
            config = EngineConfig()
        regions = {}
        for name, size in cls.region_specs(config).items():
            if rio.has_region(name):
                regions[name] = rio.get_region(name)
            else:
                region = rio.create_region(name, size)
                if space is not None:
                    space.place(region)
                regions[name] = region
        return cls(regions, config, fresh=fresh)

    @abc.abstractmethod
    def _setup(self, fresh: bool) -> None:
        """Initialize (or attach to) the version-specific structures."""

    # -- setup-phase loading --------------------------------------------------

    def initialize_data(self, offset: int, data: bytes) -> None:
        """Load initial database contents outside any transaction.

        Not counted as traffic or engine work: the paper's initial
        image reaches the backup when the mappings are created, not
        through the transaction stream. Mirror-based versions also
        refresh their mirror so both copies start identical.
        """
        if self._active:
            raise TransactionAlreadyActiveError(
                "initialize_data inside a transaction"
            )
        self.db.poke(offset, data)
        self._on_initialize(offset, data)

    def _on_initialize(self, offset: int, data: bytes) -> None:
        """Hook for versions that keep a second copy of the database."""

    # -- the RVM API -------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._active

    def begin_transaction(self) -> None:
        """Start a transaction."""
        if self._active:
            raise TransactionAlreadyActiveError(
                f"{self.VERSION}: begin_transaction inside a transaction"
            )
        self._active = True
        self._ranges = []
        self.counters.transactions += 1
        self._on_begin()

    def set_range(
        self, offset: int, length: int, hint: str = HINT_RANDOM
    ) -> None:
        """Declare that the transaction may modify
        ``[offset, offset + length)`` of the database."""
        self._require_active("set_range")
        if offset < 0 or length <= 0 or offset + length > self.db.size:
            raise OutOfBoundsError(self.db.name, offset, length, self.db.size)
        self._ranges.append((offset, offset + length))
        self.counters.set_ranges += 1
        self.counters.set_range_bytes += length
        if hint == HINT_SEQUENTIAL:
            self.profile.touch_sequential("db", length)
        else:
            self.profile.touch_random("db", offset, length)
        self._on_set_range(offset, length)

    def write(self, offset: int, data: bytes) -> None:
        """In-place database write (must be covered by a set_range)."""
        self._require_active("write")
        length = len(data)
        if self.config.enforce_ranges and not self._covered(offset, length):
            raise RangeNotDeclaredError(offset, length)
        self.db.write(offset, data, WriteCategory.MODIFIED)
        self.counters.db_writes += 1
        self.counters.db_bytes_written += length

    def read(self, offset: int, length: int) -> bytes:
        """Read database bytes (allowed outside transactions too)."""
        return self.db.read(offset, length)

    def commit_transaction(self) -> None:
        """Make the transaction's effects durable."""
        self._require_active("commit_transaction")
        self._on_commit()
        self._active = False
        self._ranges = []
        self.counters.commits += 1

    def abort_transaction(self) -> None:
        """Undo the transaction's effects."""
        self._require_active("abort_transaction")
        self._on_abort()
        self._active = False
        self._ranges = []
        self.counters.aborts += 1

    def recover(self) -> None:
        """Crash recovery: restore the database to the last committed
        state using only the persistent structures in the regions."""
        self._on_recover()
        self._active = False
        self._ranges = []
        self.counters.recoveries += 1

    # -- hooks ---------------------------------------------------------------

    def _on_begin(self) -> None:
        """Version-specific begin processing (optional)."""

    @abc.abstractmethod
    def _on_set_range(self, offset: int, length: int) -> None:
        ...

    @abc.abstractmethod
    def _on_commit(self) -> None:
        ...

    @abc.abstractmethod
    def _on_abort(self) -> None:
        ...

    @abc.abstractmethod
    def _on_recover(self) -> None:
        ...

    # -- helpers ---------------------------------------------------------------

    def _require_active(self, operation: str) -> None:
        if not self._active:
            raise NoTransactionError(
                f"{self.VERSION}: {operation} outside a transaction"
            )

    def _covered(self, offset: int, length: int) -> bool:
        # Newest first: a write almost always hits the last declared range.
        end = offset + length
        for lo, hi in reversed(self._ranges):
            if lo <= offset and end <= hi:
                return True
        return False

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(db={self.db.size}B, "
            f"active={self._active})"
        )
