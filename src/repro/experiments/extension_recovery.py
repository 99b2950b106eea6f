"""Extension experiment: recovery time and availability per design.

Not a table in the paper — it quantifies two of the paper's qualitative
claims. The takeover work is *measured* by actually crashing each
replicated system mid-transaction and counting the bytes its failover
restores (``counters.rollback_bytes``), then converted to time by the
memcpy-bandwidth model in :mod:`repro.replication.recovery_time`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.experiments.common import MB
from repro.hardware.specs import MEMORY_CHANNEL_II
from repro.obs import MetricsRegistry, Observer
from repro.obs.slo import nines
from repro.perf.report import ReportTable
from repro.replication.active import ActiveReplicatedSystem
from repro.replication.passive import PassiveReplicatedSystem
from repro.replication.recovery_time import (
    MEMCPY_BYTES_PER_US,
    RecoveryProfile,
    availability,
    one_safe_window_us,
    profiles_for,
)
from repro.vista.api import EngineConfig
from repro.workloads import DebitCreditWorkload


@dataclass
class RecoveryResult:
    profiles: Dict[str, RecoveryProfile]
    measured_restore_bytes: Dict[str, int]
    db_bytes: int
    loss_window_us: float = 0.0
    #: The obs registry every engine's counters were bridged into;
    #: ``measured_restore_bytes`` is read back out of it, so the check
    #: consumes the observability path, not engine-private state.
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    def table(self) -> ReportTable:
        table = ReportTable(
            f"Extension: recovery time and availability "
            f"({self.db_bytes // MB} MB database, 5 ms detection, "
            f"30-day MTBF)",
            ["design", "restore bytes", "downtime", "availability"],
        )
        for name, profile in self.profiles.items():
            downtime_us = profile.takeover_us()
            avail = availability(downtime_us)
            downtime = (
                f"{downtime_us / 1e6:.1f} s"
                if downtime_us >= 1e6
                else f"{downtime_us / 1000:.2f} ms"
            )
            table.add_row(
                name,
                profile.bytes_to_restore,
                downtime,
                f"{nines(avail):.1f} nines",
            )
        table.add_note(
            "the mirror versions' whole-database restore is the "
            "Section 5.1 tradeoff; standalone Vista pays a full reboot"
        )
        table.add_note(
            f"1-safe loss window (active): {self.loss_window_us:.1f} us "
            f"per commit — the paper's 'few microseconds', quantified"
        )
        return table

    def check(self) -> None:
        takeovers = {
            name: profile.takeover_us()
            for name, profile in self.profiles.items()
        }
        # Every replicated design recovers orders of magnitude faster
        # than waiting out a standalone reboot.
        standalone = takeovers["standalone (Vista)"]
        for name, value in takeovers.items():
            if name != "standalone (Vista)":
                assert value < standalone / 100, (name, value, standalone)
        # Mirror restore is the slowest replicated path (Section 5.1).
        mirror = takeovers["passive v1/v2 (mirror restore)"]
        for name in ("passive v3 (log rollback)", "active (drain redo ring)"):
            assert mirror > takeovers[name], (name, takeovers)
        # The measured restore bytes back the profiles: the mirror
        # versions really copied the whole database.
        assert self.measured_restore_bytes["v1"] == self.db_bytes
        assert self.measured_restore_bytes["v2"] == self.db_bytes
        assert self.measured_restore_bytes["v3"] < 4096
        # ...and the obs registry holds the same numbers the check just
        # consumed — the bridge is lossless.
        for version in ("v0", "v1", "v2", "v3"):
            assert self.registry.value(
                f"recovery.{version}.engine.rollback_bytes"
            ) == self.measured_restore_bytes[version]
        assert self.registry.value(
            "recovery.active.ring_backlog_bytes"
        ) == self.measured_restore_bytes["active-backlog"]
        # "A very short window of vulnerability (a few microseconds)".
        assert 3.0 < self.loss_window_us < 20.0, self.loss_window_us


#: Database size of the five crashed systems, and their workload seed.
_DB_BYTES = 8 * MB
_SEED = 42


def run(_ctx=None) -> RecoveryResult:
    """Reads no cells: it crashes five systems of its own."""
    db_bytes, seed = _DB_BYTES, _SEED
    config = EngineConfig(db_bytes=db_bytes, log_bytes=2 * MB)
    observer = Observer()
    measured: Dict[str, int] = {}
    live_undo = 0

    for version in ("v0", "v1", "v2", "v3"):
        system = PassiveReplicatedSystem(version, config)
        workload = DebitCreditWorkload(db_bytes, seed=seed)
        workload.setup(system)
        system.sync_initial()
        for _ in range(50):
            workload.run_transaction(system)
        # Crash mid-transaction so there is live undo to handle.
        system.begin_transaction()
        system.set_range(0, 64)
        system.write(0, b"\xff" * 64)
        system.fail_primary()
        engine = system.failover()
        # Bridge the promoted engine's tallies into the obs namespace
        # and read the measurement back out of the registry.
        engine.counters.snapshot_into(
            observer.registry, f"recovery.{version}.engine"
        )
        measured[version] = int(
            observer.registry.value(f"recovery.{version}.engine.rollback_bytes")
        )
        if version == "v3":
            live_undo = max(live_undo, measured[version])
        system.close()  # measured: free its regions before the next build

    active = ActiveReplicatedSystem(config, auto_apply=False)
    workload = DebitCreditWorkload(db_bytes, seed=seed)
    workload.setup(active)
    active.sync_initial()
    for _ in range(50):
        workload.run_transaction(active)
    backlog = active.producer.produced - active.applier.consumed
    redo_link_per_txn = active.primary_interface.trace.link_time_us(
        MEMORY_CHANNEL_II
    ) / 50.0
    active.fail_primary()
    active.failover()
    active.close()
    observer.registry.gauge("recovery.active.ring_backlog_bytes").set(
        float(backlog)
    )
    measured["active-backlog"] = backlog

    profiles = profiles_for(
        db_bytes=db_bytes,
        live_undo_bytes=max(64, live_undo),
        ring_backlog_bytes=float(backlog),
    )
    return RecoveryResult(
        profiles=profiles,
        measured_restore_bytes=measured,
        db_bytes=db_bytes,
        loss_window_us=one_safe_window_us(redo_link_per_txn),
        registry=observer.registry,
    )
