"""A two-node replicated cluster, wired end to end.

:class:`ReplicatedCluster` bundles what the examples and failover
experiments otherwise assemble by hand: a primary and a backup
:class:`~repro.cluster.node.Node`, a replicated transaction system
(passive, any version, or active), a heartbeat monitor on the
discrete-event simulator, and the takeover path. Crash the primary at
a simulated time (``RoutedCluster.crash``) and the pair detects it,
runs failover, and reports the measured downtime — the availability
story the paper's title promises, made executable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from repro.cluster.membership import HeartbeatMonitor, Membership
from repro.cluster.node import Node
from repro.errors import ConfigurationError, FailoverError
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
from repro.replication.recovery_time import MEMCPY_BYTES_PER_US
from repro.sim.engine import Simulator
from repro.vista.api import EngineConfig


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
    """Primary + backup + failure detection + failover, in one object:
    one unit of a :class:`~repro.shard.cluster.ShardedCluster`, which
    builds every pair on its one simulator and schedules its faults.

    Args:
        sim: the simulator the pair's heartbeats and takeover run on.
        primary_name / backup_name: node names, unique on ``sim``.
        on_failover: called with this cluster after a takeover
            completes (the shard map uses it to bump epochs).
        mode: ``"passive"`` or ``"active"``.
        version: engine version for passive mode (ignored for active,
            which always runs Version 3 on the primary).

    Failover work (bytes restored) becomes simulated time at the
    backup's memory-copy rate,
    :data:`~repro.replication.recovery_time.MEMCPY_BYTES_PER_US`.
    """

    def __init__(
        self,
        sim: Simulator,
        primary_name: str,
        backup_name: str,
        on_failover: Callable[["ReplicatedCluster"], None],
        mode: str,
        version: str,
        config: Optional[EngineConfig],
        heartbeat_interval_us: float,
        heartbeat_timeout_us: float,
        observer,
    ):
        if mode not in ("passive", "active"):
            raise ConfigurationError(f"unknown cluster mode {mode!r}")
        self.mode = mode
        self.version = version
        self.config = config if config is not None else EngineConfig()
        self.on_failover = on_failover
        self.observer = observer
        self.sim = sim
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
        self._crash_planned = False
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

    # -- failure ---------------------------------------------------------------

    def check_fault(self, fault: str, *sides: Sequence[int]) -> None:
        """Admit, when it is scheduled, the one fault a pair takes: a
        single crash of its primary (member 0). The pair fails over once
        and never heals, so a second crash, a backup crash, a recovery
        or a partition is refused here, before the simulator runs."""
        if fault != "crash":
            raise ConfigurationError(
                f"a primary-backup pair cannot take a {fault}: it fails "
                f"over once and never heals"
            )
        ((member,),) = sides
        if member != 0:
            raise ConfigurationError(
                f"a pair crashes only its primary (member 0), not "
                f"member {member}"
            )
        if self._crash_planned:
            raise ConfigurationError(
                f"{self.primary_node.name} already has a crash scheduled; "
                f"a pair fails over once"
            )
        self._crash_planned = True

    def crash_member(self, member: int) -> None:
        """Crash the primary now (``member`` is 0: :meth:`check_fault`
        admitted nothing else)."""
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
        takeover_us = restored / MEMCPY_BYTES_PER_US
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
            recorder = RecoverySpanRecorder(self.observer)
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
                restore_bytes_per_us=MEMCPY_BYTES_PER_US,
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
                    drain_cost_us=PhaseCostModel().apply_us(
                        drain_records, drain_bytes
                    ),
                )
            self.last_recovery_link = recorder.finish(**root_attrs)
        self.on_failover(self)

    def __repr__(self) -> str:
        state = "failed-over" if self.takeover else "normal"
        return (
            f"ReplicatedCluster(mode={self.mode!r}, version={self.version!r}, "
            f"{state})"
        )
