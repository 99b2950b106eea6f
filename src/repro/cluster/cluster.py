"""A two-node replicated cluster, wired end to end.

:class:`ReplicatedCluster` bundles what the examples and failover
experiments otherwise assemble by hand: a primary and a backup
:class:`~repro.cluster.node.Node`, a replicated transaction system
(passive, any version, or active), a heartbeat monitor on the
discrete-event simulator, and the takeover path. Crash the primary at
a simulated time and the cluster detects it, runs failover, and
reports the measured downtime — the availability story the paper's
title promises, made executable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.cluster.membership import HeartbeatMonitor, Membership
from repro.cluster.node import Node
from repro.errors import ConfigurationError, FailoverError
from repro.obs.observer import resolve_observer
from repro.obs.recovery import (
    PHASE_CATCHUP,
    PHASE_DETECT,
    PHASE_PROMOTE,
    PHASE_VIEW,
    RecoverySpanRecorder,
)
from repro.obs.spans import PhaseCostModel
from repro.replication.active import ActiveReplicatedSystem
from repro.replication.passive import PassiveReplicatedSystem
from repro.sim.engine import Simulator
from repro.sim.events import SHAPE_SHARED, default_event_queue
from repro.vista.api import EngineConfig, TransactionEngine


@dataclass
class TakeoverReport:
    """What a failover cost, in simulated time."""

    crash_at_us: float
    detected_at_us: float
    service_restored_at_us: float
    bytes_restored: int

    @property
    def detection_us(self) -> float:
        return self.detected_at_us - self.crash_at_us

    @property
    def downtime_us(self) -> float:
        return self.service_restored_at_us - self.crash_at_us


class ReplicatedCluster:
    """Primary + backup + failure detection + failover, in one object.

    Args:
        mode: ``"passive"`` or ``"active"``.
        version: engine version for passive mode (ignored for active,
            which always runs Version 3 on the primary).
        restore_bytes_per_us: backup-side memory copy bandwidth used to
            convert failover work (bytes restored) into simulated time;
            ~300 bytes/us matches a late-90s AlphaServer memcpy.
        sim: a simulator to share with other pairs (a
            :class:`~repro.shard.cluster.ShardedCluster` runs every
            pair's heartbeats and takeovers on one clock); by default
            the pair owns a private one.
        primary_name / backup_name: node names, overridable so several
            pairs can coexist on one simulator without name clashes.
        on_failover: called with this cluster after a takeover
            completes (the shard map uses it to bump epochs).
    """

    def __init__(
        self,
        mode: str = "active",
        version: str = "v3",
        config: Optional[EngineConfig] = None,
        heartbeat_interval_us: float = 1_000.0,
        heartbeat_timeout_us: float = 5_000.0,
        restore_bytes_per_us: float = 300.0,
        sim: Optional[Simulator] = None,
        primary_name: str = "primary",
        backup_name: str = "backup",
        on_failover: Optional[Callable[["ReplicatedCluster"], None]] = None,
        observer=None,
    ):
        if mode not in ("passive", "active"):
            raise ConfigurationError(f"unknown cluster mode {mode!r}")
        self.mode = mode
        self.version = version
        self.config = config if config is not None else EngineConfig()
        self.restore_bytes_per_us = restore_bytes_per_us
        self.on_failover = on_failover
        self.observer = resolve_observer(observer)

        # Standalone pairs are heartbeat/timeout driven: shared-shape
        # timestamps, so the wheel queue.
        self.sim = (
            sim
            if sim is not None
            else Simulator(
                observer=self.observer, queue=default_event_queue(SHAPE_SHARED)
            )
        )
        self.observer.bind_clock(lambda: self.sim.now)
        self.primary_node = Node(primary_name)
        self.backup_node = Node(backup_name)
        self.membership = Membership(
            members=[primary_name, backup_name], primary=primary_name,
            observer=self.observer,
        )
        if mode == "passive":
            self.system: Union[
                PassiveReplicatedSystem, ActiveReplicatedSystem
            ] = PassiveReplicatedSystem(
                version, self.config,
                primary_name=primary_name, backup_name=backup_name,
                observer=self.observer,
            )
        else:
            self.system = ActiveReplicatedSystem(
                self.config,
                primary_name=primary_name, backup_name=backup_name,
                observer=self.observer,
            )
        self.system.sync_initial()

        self.takeover: Optional[TakeoverReport] = None
        #: Causal handle of the last emitted recovery span, consumed by
        #: the router's first post-failover completion (resume link).
        self.last_recovery_link = None
        self._crash_at_us: Optional[float] = None
        self._serving = self.system
        self.monitor = HeartbeatMonitor(
            self.sim,
            self.primary_node,
            self._on_primary_failure,
            interval_us=heartbeat_interval_us,
            timeout_us=heartbeat_timeout_us,
            observer=self.observer,
        )
        self.monitor.start()

    # -- serving ------------------------------------------------------------

    @property
    def serving(self):
        """Whatever currently serves transactions (the system before a
        failover, the promoted backup engine after)."""
        return self._serving

    @property
    def is_available(self) -> bool:
        """Whether the pair can serve a request *now* (simulated time).

        False between the primary's crash and the end of the promoted
        backup's restore work — the downtime window a router must ride
        out with retries.
        """
        if self._crash_at_us is None:
            return True
        if self.takeover is None:
            return False
        return self.sim.now >= self.takeover.service_restored_at_us

    def run_transactions(self, workload, count: int) -> None:
        """Drive ``count`` workload transactions at the current server."""
        for _ in range(count):
            workload.run_transaction(self._serving)

    # -- failure ---------------------------------------------------------------

    def schedule_primary_crash(self, at_us: float) -> None:
        """Crash the primary at simulated time ``at_us``."""
        self.sim.schedule_at(at_us, self._crash_primary, name="crash")

    def _crash_primary(self) -> None:
        self._crash_at_us = self.sim.now
        self.primary_node.crash()
        self.system.fail_primary()
        if self.observer.enabled:
            self.observer.count("cluster.crashes")
            self.observer.event(
                "cluster", "fault.crash", node=self.primary_node.name
            )

    def _on_primary_failure(self) -> None:
        if self._crash_at_us is None:
            raise FailoverError("failure detected without a crash (bug)")
        detected = self.sim.now
        self.membership.fail(self.primary_node.name)
        # Active failover drains the redo ring inside failover(); bracket
        # the applier counters so the drain cost can be priced for the
        # recovery span (pure reads — no model state changes).
        applier = getattr(self.system, "applier", None)
        drain_before = (
            (applier.records_applied, applier.bytes_applied)
            if self.observer.enabled and applier is not None
            else None
        )
        engine = self.system.failover()
        restored = engine.counters.rollback_bytes
        takeover_us = restored / self.restore_bytes_per_us
        self.takeover = TakeoverReport(
            crash_at_us=self._crash_at_us,
            detected_at_us=detected,
            service_restored_at_us=detected + takeover_us,
            bytes_restored=restored,
        )
        self._serving = engine
        if self.observer.enabled:
            self.observer.count("cluster.takeovers")
            self.observer.event(
                "cluster", "failure.detected",
                node=self.primary_node.name,
                detection_us=detected - self._crash_at_us,
            )
            self.observer.span(
                "cluster", "takeover",
                start_us=detected,
                end_us=self.takeover.service_restored_at_us,
                bytes_restored=restored,
                new_primary=self.backup_node.name,
            )
            # The promoted engine's own tallies join the shared
            # namespace, so a report reads one registry, not two paths.
            engine.counters.snapshot_into(
                self.observer.registry,
                self.observer.metric_name("cluster.takeover.engine"),
            )
            # The causal recovery tree: children tile [crash, restored]
            # exactly. A pair's view change and promotion fire at the
            # detection instant (zero-width, skipped on emission); an
            # active pair replays the ring during detection, so its
            # catchup is zero-width too and the measured drain cost
            # rides on the root attrs instead.
            recorder = RecoverySpanRecorder(self.observer, "cluster")
            recorder.phase(
                PHASE_DETECT, self._crash_at_us, detected,
                heartbeat_interval_us=self.monitor.interval_us,
                heartbeat_timeout_us=self.monitor.timeout_us,
            )
            recorder.phase(PHASE_VIEW, detected, detected)
            recorder.phase(PHASE_PROMOTE, detected, detected)
            recorder.phase(
                PHASE_CATCHUP, detected,
                self.takeover.service_restored_at_us,
                bytes_restored=restored,
                restore_bytes_per_us=self.restore_bytes_per_us,
            )
            root_attrs = {
                "node": self.primary_node.name,
                "new_primary": self.backup_node.name,
                "mode": self.mode,
            }
            if drain_before is not None:
                drain_records = applier.records_applied - drain_before[0]
                drain_bytes = applier.bytes_applied - drain_before[1]
                root_attrs.update(
                    drain_records=drain_records,
                    drain_bytes=drain_bytes,
                    drain_cost_us=PhaseCostModel(self.system.san).apply_us(
                        drain_records, drain_bytes
                    ),
                )
            self.last_recovery_link = recorder.finish(**root_attrs)
        if self.on_failover is not None:
            self.on_failover(self)

    def run_until(self, until_us: float) -> None:
        self.sim.run(until=until_us)

    def __repr__(self) -> str:
        state = "failed-over" if self.takeover else "normal"
        return (
            f"ReplicatedCluster(mode={self.mode!r}, version={self.version!r}, "
            f"{state})"
        )
