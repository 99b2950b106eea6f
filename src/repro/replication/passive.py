"""Primary-backup with a passive backup (Section 5).

The backup CPU does nothing during normal operation: all replicated
state travels by write doubling on the primary. For each engine
version the replicated region set follows the paper:

* Version 0 replicates everything — database, control word, and the
  whole heap with its records, pre-images and allocator bookkeeping.
  This is the "straightforward" implementation of Section 3.
* Versions 1 and 2 replicate the database, control word and mirror,
  but keep the set_range coordinate array primary-local
  (Section 5.1): cheaper in the common case, at the price of the
  backup restoring the *whole* database from the mirror on failover.
  ``ship_undo_log=True`` disables the optimization (ablation).
* Version 3 replicates the database, control word and inline undo
  log; the backup recovers by rolling the log back, exactly like a
  local crash recovery.

Commit is 1-safe: :meth:`PassiveReplicatedSystem.commit_transaction`
drains the write buffers (so the commit record is on the wire) but
does not wait for any acknowledgment.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import FailoverError
from repro.hardware.specs import SanSpec, MEMORY_CHANNEL_II
from repro.memory.mapping import AddressSpace
from repro.memory.region import MemoryRegion
from repro.memory.rio import RioMemory
from repro.obs.observer import resolve_observer
from repro.obs.spans import (
    PHASE_BARRIER,
    PHASE_DOUBLING,
    PHASE_ENGINE,
    CommitSpanRecorder,
    PhaseCostModel,
    counters_snapshot,
)
from repro.san.memory_channel import MemoryChannelInterface
from repro.replication.commit_safety import CommitSafety
from repro.replication.writethrough import WriteThroughReplica
from repro.vista.api import EngineConfig, TransactionEngine, HINT_RANDOM
from repro.vista.factory import engine_class


class PassiveReplicatedSystem:
    """A primary engine whose replicated regions are write-doubled to a
    passive backup node.

    The transaction API is forwarded to the primary engine; the write
    observers installed on the replicated regions do the doubling.
    """

    def __init__(
        self,
        version: str,
        config: Optional[EngineConfig] = None,
        san: SanSpec = MEMORY_CHANNEL_II,
        ship_undo_log: bool = False,
        primary_name: str = "primary",
        backup_name: str = "backup",
        observer=None,
    ):
        self.version = version
        self.config = config if config is not None else EngineConfig()
        self.san = san
        self.ship_undo_log = ship_undo_log
        self.observer = resolve_observer(observer)

        self.primary_rio = RioMemory(primary_name)
        self.backup_rio = RioMemory(backup_name)
        self.space = AddressSpace()
        self.engine: TransactionEngine = engine_class(version).create(
            self.primary_rio, self.config, self.space
        )
        self.interface = MemoryChannelInterface(
            primary_name, san, observer=self.observer
        )
        self.replica = WriteThroughReplica(self.interface, self.backup_rio)

        replicated = list(self.engine.REPLICATED)
        if ship_undo_log:
            replicated += list(self.engine.LOCAL)
        self.replicated_names = tuple(replicated)
        # Mirror updates stream through cache-missing lines, so their
        # doubled stores leave as isolated word packets (Section 8's
        # "no aggregation" observation for the mirroring protocols).
        self.replica.bind_all(
            self.engine.regions,
            self.replicated_names,
            fragmented_names=("mirror",),
        )
        self._failed_over = False
        self._txn_wire_start = 0
        # Causal commit spans: phase durations are modeled from this
        # commit's own counter and packet-trace deltas (repro.obs.spans),
        # so recording stays a pure observation of the run.
        if self.observer.enabled:
            self._spans = CommitSpanRecorder(
                self.observer, "replication.passive"
            )
            self._phase_model = PhaseCostModel(san)
        else:
            self._spans = None
        self._txn_counters_base = ()
        self._txn_link_start = 0.0

    # -- data loading -----------------------------------------------------

    def initialize_data(self, offset: int, data: bytes) -> None:
        """Load initial contents on the primary (not counted as traffic)."""
        self.engine.initialize_data(offset, data)

    def sync_initial(self) -> None:
        """Ship the initial image to the backup (mapping-time copy)."""
        self.replica.sync_initial(self.engine.regions)

    # -- the transaction API ------------------------------------------------

    def begin_transaction(self) -> None:
        self.engine.begin_transaction()
        self._txn_wire_start = self.interface.bytes_sent
        if self._spans is not None:
            self._txn_counters_base = counters_snapshot(self.engine.counters)
            self._txn_link_start = self.interface.link_time_us()

    def set_range(self, offset: int, length: int, hint: str = HINT_RANDOM) -> None:
        self.engine.set_range(offset, length, hint)

    def write(self, offset: int, data: bytes) -> None:
        self.engine.write(offset, data)

    def read(self, offset: int, length: int) -> bytes:
        return self.engine.read(offset, length)

    def commit_transaction(self) -> None:
        """1-safe commit: complete locally, put the commit record on
        the wire, do not wait."""
        self.engine.commit_transaction()
        if self._spans is not None:
            # Link occupancy of the doubled transaction body, measured
            # before the commit barrier drains the residual buffers.
            link_at_commit = self.interface.link_time_us()
            doubling_us = link_at_commit - self._txn_link_start
        self.interface.barrier()
        if self.observer.enabled:
            doubled = self.interface.bytes_sent - self._txn_wire_start
            self.observer.count("replication.passive.commits")
            self.observer.count("replication.passive.wire_bytes", doubled)
            self.observer.event(
                "replication.passive", "commit",
                version=self.version, wire_bytes=doubled,
                safety=CommitSafety.ONE_SAFE.value,
            )
            self._spans.phase(
                PHASE_ENGINE,
                self._phase_model.engine_us(
                    self._txn_counters_base,
                    counters_snapshot(self.engine.counters),
                ),
            )
            self._spans.phase(PHASE_DOUBLING, doubling_us)
            self._spans.phase(
                PHASE_BARRIER,
                self.interface.link_time_us() - link_at_commit,
            )
            self._spans.finish(
                version=self.version, wire_bytes=doubled,
                safety=CommitSafety.ONE_SAFE.value,
            )

    def abort_transaction(self) -> None:
        self.engine.abort_transaction()
        self.interface.barrier()
        if self.observer.enabled:
            self.observer.count("replication.passive.aborts")

    # -- failure and takeover ---------------------------------------------------

    def fail_primary(self) -> None:
        """Crash the primary node (Rio keeps its memory safe but
        unavailable; its Memory Channel interface goes down)."""
        self.primary_rio.crash()
        self.interface.crash()
        self.replica.detach_all()

    def failover(self) -> TransactionEngine:
        """Backup takeover: recover a consistent engine on the backup.

        For the optimized mirror versions (no coordinate array on the
        backup) this restores the whole database from the mirror; the
        other versions run ordinary undo recovery on the replicated
        structures.
        """
        if self._failed_over:
            raise FailoverError("backup already took over")
        cls = engine_class(self.version)
        regions: Dict[str, MemoryRegion] = {}
        for name, size in cls.region_specs(self.config).items():
            if self.backup_rio.has_region(name):
                regions[name] = self.backup_rio.get_region(name)
            else:
                # Primary-local structures (e.g. the set_range array)
                # do not exist on the backup; takeover creates empty ones.
                regions[name] = self.backup_rio.create_region(name, size)
        backup_engine = cls(regions, self.config, fresh=False)
        mirror_based = self.version in ("v1", "v2") and not self.ship_undo_log
        if mirror_based:
            backup_engine.restore_from_mirror()
        else:
            backup_engine.recover()
        self._failed_over = True
        return backup_engine

    def close(self) -> None:
        """Tear down a pair that has been measured: bindings detached,
        transmit windows unmapped, both nodes' regions refusing access
        as a crashed node's do — a closed pair can never run on
        unreplicated, and the two reference cycles that kept its
        regions for the cyclic collector (DESIGN §7) are broken.
        Idempotent; statistics already read stay valid."""
        self.replica.detach_all()
        self.interface.unmap_all()
        self.primary_rio.crash()
        self.backup_rio.crash()

    # -- accounting ----------------------------------------------------------------

    @property
    def traffic_bytes_by_category(self) -> Dict[str, int]:
        """Bytes sent to the backup, keyed by category value."""
        return {
            category.value: count
            for category, count in self.interface.bytes_by_category.items()
        }

    @property
    def total_bytes_sent(self) -> int:
        return self.interface.bytes_sent
