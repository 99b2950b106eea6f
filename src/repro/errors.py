"""Exception hierarchy for the repro library.

Every error raised by this library derives from :class:`ReproError` so
that callers can catch library failures with a single ``except`` clause
while still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class MemoryError_(ReproError):
    """Base class for memory-subsystem errors.

    Named with a trailing underscore to avoid shadowing the builtin
    ``MemoryError``.
    """


class OutOfBoundsError(MemoryError_):
    """An access fell outside the bounds of a memory region."""

    def __init__(self, region: str, offset: int, length: int, size: int):
        super().__init__(
            f"access [{offset}, {offset + length}) out of bounds for "
            f"region {region!r} of size {size}"
        )
        self.region = region
        self.offset = offset
        self.length = length
        self.size = size


class AllocationError(MemoryError_):
    """The allocator could not satisfy a request."""


class CrashedError(ReproError):
    """An operation was attempted on a crashed node or device."""


class TransactionError(ReproError):
    """Base class for transaction-engine misuse and failures."""


class NoTransactionError(TransactionError):
    """An operation that requires an open transaction found none."""


class TransactionAlreadyActiveError(TransactionError):
    """``begin_transaction`` was called while a transaction was open."""


class RangeNotDeclaredError(TransactionError):
    """A write touched bytes not covered by any ``set_range`` call."""

    def __init__(self, offset: int, length: int):
        super().__init__(
            f"write [{offset}, {offset + length}) not covered by set_range"
        )
        self.offset = offset
        self.length = length


class ReplicationError(ReproError):
    """Base class for replication-layer errors."""


class RedoLogFullError(ReplicationError):
    """The redo-log circular buffer is full and the producer must wait."""


class RedoLogCorruptError(ReplicationError):
    """A redo frame's record count or a record header claims bytes past
    the producer pointer, or a record an offset outside the database:
    the ring is torn or corrupted."""

    def __init__(self, field: str, consumed: int, produced: int):
        super().__init__(
            f"redo ring corrupt at {field} "
            f"(consumed={consumed}, produced={produced})"
        )
        self.field, self.consumed, self.produced = field, consumed, produced


class NotMappedError(ReplicationError):
    """A write-through operation targeted an unmapped region."""


class FailoverError(ReplicationError):
    """Failover could not complete (e.g. backup also crashed)."""


class ShardError(ReproError):
    """Base class for sharding-layer errors."""


class StaleShardMapError(ShardError):
    """A request carried a shard-map epoch older than the shard's
    current view (the client must refresh its map and redirect)."""

    def __init__(self, shard_id: int, seen_epoch: int, current_epoch: int):
        super().__init__(
            f"shard {shard_id}: request epoch {seen_epoch} is stale "
            f"(current epoch {current_epoch})"
        )
        self.shard_id = shard_id
        self.seen_epoch = seen_epoch
        self.current_epoch = current_epoch


class ShardUnavailableError(ShardError):
    """The shard's pair is mid-failover; the client should back off
    and retry."""

    def __init__(self, shard_id: int):
        super().__init__(f"shard {shard_id} is failing over")
        self.shard_id = shard_id


class RoutingError(ShardError):
    """The router could not place or complete a request."""


class SimulationError(ReproError):
    """Base class for discrete-event-simulation errors."""


class ClockError(SimulationError):
    """The virtual clock was asked to move backwards."""


class ConfigurationError(ReproError):
    """An experiment or model was configured inconsistently."""
