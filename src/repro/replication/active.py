"""Primary-backup with an active backup (Section 6).

The primary runs the best local scheme (Version 3: inline undo log,
kept primary-local) for atomicity, and ships only a **redo log** of
committed changes through the circular buffer of
:mod:`repro.replication.redo_log`. The backup CPU applies the changes
to its own copy of the database and acknowledges via the consumer
pointer.

Less data crosses the SAN than in any passive scheme — no undo data,
no mirror — and the ring writes are perfectly contiguous, so they ride
in full 32-byte Memory Channel packets. The price is that the
meta-data now describes *modified data*, which is more scattered than
set_range areas and therefore needs more records (Section 6.2).

This is also the only version free of the Memory Channel address-space
limit: the mapped window is just the ring, not the database, so the
database can grow arbitrarily (Section 7 / Table 8).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import FailoverError
from repro.hardware.specs import MEMORY_CHANNEL_II
from repro.memory.mapping import AddressSpace
from repro.memory.rio import RioMemory
from repro.obs.observer import NULL_OBSERVER
from repro.obs.spans import (
    PHASE_APPLY,
    PHASE_BARRIER,
    PHASE_ENGINE,
    PHASE_SHIP,
    CommitSpanRecorder,
    PhaseCostModel,
    counters_snapshot,
)
from repro.san.memory_channel import MemoryChannelInterface
from repro.replication.commit_safety import CommitSafety
from repro.replication.redo_log import (
    RedoLogApplier,
    RedoLogProducer,
    RedoRecord,
    RedoTransaction,
)
from repro.vista.api import EngineConfig
from repro.vista.v3_inline_log import InlineLogEngine

_DEFAULT_RING_BYTES = 1 << 20


def coalesce_writes(writes: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge overlapping/adjacent (offset, length) write extents.

    The redo log ships each modified byte once per transaction even if
    it was written several times; later values win because the data is
    read from the database at commit time. A zero-length extent
    modifies nothing and ships no record.
    """
    merged: List[Tuple[int, int]] = []
    start = end = 0
    for offset, length in sorted(writes):
        if length <= 0:
            continue
        if merged and offset <= end:
            if offset + length > end:
                end = offset + length
                merged[-1] = (start, end - start)
        else:
            start, end = offset, offset + length
            merged.append((start, length))
    return merged


class ActiveReplicatedSystem:
    """A Version 3 primary plus an active, redo-applying backup."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        ring_bytes: int = _DEFAULT_RING_BYTES,
        safety: CommitSafety = CommitSafety.ONE_SAFE,
        auto_apply: bool = True,
        primary_name: str = "primary",
        backup_name: str = "backup",
        observer=NULL_OBSERVER,
    ):
        self.config = config if config is not None else EngineConfig()
        self.safety = safety
        self.auto_apply = auto_apply
        self.observer = observer

        # Primary: a fully local Version 3 engine.
        self.primary_rio = RioMemory(primary_name)
        self.space = AddressSpace()
        self.engine = InlineLogEngine.create(
            self.primary_rio, self.config, self.space
        )
        # set_range and read are the engine's own; write also records
        # the extent the redo log ships.
        self.set_range = self.engine.set_range
        self.read = self.engine.read

        # Backup: its own database copy and the redo ring.
        self.backup_rio = RioMemory(backup_name)
        self.backup_db = self.backup_rio.create_region("db", self.config.db_bytes)
        self.ring = self.backup_rio.create_region("redo-ring", ring_bytes + 8)

        # Primary -> backup: the ring. Backup -> primary: the consumer
        # pointer, written through the backup's own interface.
        self.primary_interface = MemoryChannelInterface(
            primary_name, observer=self.observer
        )
        self.backup_interface = MemoryChannelInterface(
            backup_name, observer=self.observer
        )
        self.consumer_region = self.primary_rio.create_region("consumer-seq", 8)
        ring_mapping = self.primary_interface.map_remote(self.ring, name="redo-ring")
        ack_mapping = self.backup_interface.map_remote(
            self.consumer_region, name="consumer-seq"
        )
        self.producer = RedoLogProducer(
            ring_mapping, self.consumer_region, observer=self.observer
        )
        self.applier = RedoLogApplier(
            self.ring, self.backup_db, ack_mapping, observer=self.observer
        )

        if self.observer.enabled:
            self._spans = CommitSpanRecorder(
                self.observer, "replication.active"
            )
            self._phase_model = PhaseCostModel()
        else:
            self._spans = None
        self._txn_counters_base = ()
        self._txn_writes: List[Tuple[int, int]] = []
        self._failed_over = False
        self.redo_records_shipped = 0
        self.redo_bytes_shipped = 0

    # -- data loading ------------------------------------------------------

    def initialize_data(self, offset: int, data: bytes) -> None:
        self.engine.initialize_data(offset, data)

    def sync_initial(self) -> None:
        """Ship the initial image to the backup (one-time bulk copy,
        not part of the measured transaction traffic)."""
        db = self.engine.db
        self.backup_db.load_snapshot(db.view(0, db.size))

    # -- the transaction API ----------------------------------------------------

    def begin_transaction(self) -> None:
        self.engine.begin_transaction()
        self._txn_writes = []
        if self._spans is not None:
            self._txn_counters_base = counters_snapshot(self.engine.counters)

    def write(self, offset: int, data: bytes) -> None:
        self.engine.write(offset, data)
        self._txn_writes.append((offset, len(data)))

    def _build_redo(self) -> RedoTransaction:
        records = tuple(
            RedoRecord(offset, self.engine.db.read(offset, length))
            for offset, length in coalesce_writes(self._txn_writes)
        )
        return RedoTransaction(records)

    def commit_transaction(self) -> None:
        """Commit locally, then ship the redo log.

        1-safe: the local commit is the commit point; a primary crash
        between it and the publish loses the transaction on the backup
        (the paper's few-microsecond window). 2-safe additionally
        drains the backup before returning.
        """
        redo = self._build_redo()
        self.engine.commit_transaction()
        if self._spans is not None:
            engine_after = counters_snapshot(self.engine.counters)
            link_before = self.primary_interface.link_time_us()
            records_before = self.applier.records_applied
            payload_before = self.applier.bytes_applied
        self.producer.publish(redo, drain=self.applier.apply_available)
        self.redo_records_shipped += len(redo.records)
        self.redo_bytes_shipped += redo.wire_bytes()
        self._txn_writes = []
        if self.safety is CommitSafety.TWO_SAFE or self.auto_apply:
            self.applier.apply_available()
        if self.observer.enabled:
            lag = self.producer.produced - self.applier.consumed
            self.observer.count("replication.active.commits")
            self.observer.count(
                "replication.active.redo_records", len(redo.records)
            )
            self.observer.count(
                "replication.active.redo_bytes", redo.wire_bytes()
            )
            self.observer.gauge("replication.active.ring_lag_bytes", lag)
            self.observer.event(
                "replication.active", "commit",
                records=len(redo.records), wire_bytes=redo.wire_bytes(),
                ring_lag_bytes=lag, safety=self.safety.value,
            )
            self._spans.phase(
                PHASE_ENGINE,
                self._phase_model.engine_us(
                    self._txn_counters_base, engine_after
                ),
            )
            self._spans.phase(
                PHASE_SHIP,
                self.primary_interface.link_time_us() - link_before,
            )
            self._spans.phase(
                PHASE_APPLY,
                self._phase_model.apply_us(
                    self.applier.records_applied - records_before,
                    self.applier.bytes_applied - payload_before,
                ),
            )
            self._spans.phase(
                PHASE_BARRIER, self.safety.barrier_phase_us(MEMORY_CHANNEL_II)
            )
            self._spans.finish(
                records=len(redo.records), wire_bytes=redo.wire_bytes(),
                ring_lag_bytes=lag, safety=self.safety.value,
            )

    def abort_transaction(self) -> None:
        self.engine.abort_transaction()
        self._txn_writes = []

    # -- failure and takeover ------------------------------------------------------

    def fail_primary(self) -> None:
        self.primary_rio.crash()
        self.primary_interface.crash()

    def failover(self) -> InlineLogEngine:
        """Backup takeover: drain the ring, then serve from the backup's
        database copy with a fresh local Version 3 engine."""
        if self._failed_over:
            raise FailoverError("backup already took over")
        self.applier.apply_available()
        regions = {
            "db": self.backup_db,
            "control": self.backup_rio.create_region("control", 4096),
            "ulog": self.backup_rio.create_region("ulog", self.config.log_bytes),
        }
        self._failed_over = True
        return InlineLogEngine(regions, self.config, fresh=True)

    def close(self) -> None:
        """As :meth:`PassiveReplicatedSystem.close`: the ring and ack
        windows unmapped, both nodes' regions refusing access."""
        self.primary_interface.unmap_all()
        self.backup_interface.unmap_all()
        self.primary_rio.crash()
        self.backup_rio.crash()

    # -- accounting -------------------------------------------------------------------

    @property
    def traffic_bytes_by_category(self) -> Dict[str, int]:
        """Primary-to-backup bytes by category (the consumer-pointer
        acknowledgments flow the other way and are reported separately)."""
        return {
            category.value: count
            for category, count in self.primary_interface.bytes_by_category.items()
        }

    @property
    def total_bytes_sent(self) -> int:
        return self.primary_interface.bytes_sent
