"""Heartbeat failure detection and an N-member membership view.

The paper defers crash detection and group-view management to
well-known cluster services (Section 1, citing the Microsoft Cluster
Service design). This module supplies a simple but honest version of
that machinery on the discrete-event kernel: the primary emits
heartbeats every ``interval_us``; the monitor on the backup declares
the primary dead once no heartbeat has arrived for ``timeout_us`` and
triggers failover. Detection latency is therefore bounded by
``timeout_us`` plus one polling period — asserted by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.cluster.node import Node
from repro.obs.observer import NULL_OBSERVER
from repro.sim.engine import Simulator


@dataclass
class Membership:
    """A node's view of who is in the cluster and who leads.

    Works for any member count, not just a primary-backup pair. Every
    view change — the initial view and each failure — is recorded in
    ``history`` as ``(view_id, members, primary)`` tuples, so a
    late-joining observer can replay how the cluster got here.

    Promotion after a primary failure is deterministic: the most senior
    survivor takes over, seniority being the order of the initial
    member list (which failures preserve), regardless of the order in
    which earlier members failed.
    """

    members: List[str]
    primary: str
    view_id: int = 0
    history: List[tuple] = field(default_factory=list)
    observer: object = field(default=NULL_OBSERVER, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.primary not in self.members:
            raise ValueError(
                f"primary {self.primary!r} is not a member of {self.members}"
            )
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"duplicate members in {self.members}")
        # View 0 is itself part of the record.
        self._record()

    def fail(self, name: str) -> None:
        """Remove a member; promotes the most senior survivor if it led."""
        if name not in self.members:
            return
        self.members.remove(name)
        if self.primary == name:
            if not self.members:
                raise ValueError("no surviving member to promote")
            self.primary = self.members[0]
        self.view_id += 1
        self._record()

    def _record(self) -> None:
        self.history.append((self.view_id, tuple(self.members), self.primary))
        if self.observer.enabled:
            self.observer.count("membership.view_changes")
            self.observer.gauge("membership.members", len(self.members))
            self.observer.event(
                "membership", "view.change",
                view_id=self.view_id, members=list(self.members),
                primary=self.primary,
            )


class HeartbeatMonitor:
    """Watches a node's heartbeats on the simulator; calls
    ``on_failure`` when they stop for longer than the timeout."""

    def __init__(
        self,
        sim: Simulator,
        watched: Node,
        on_failure: Callable[[], None],
        interval_us: float = 1000.0,
        timeout_us: float = 5000.0,
        observer=NULL_OBSERVER,
    ):
        if timeout_us <= interval_us:
            raise ValueError("timeout must exceed the heartbeat interval")
        self.sim = sim
        self.watched = watched
        self.on_failure = on_failure
        self.interval_us = interval_us
        self.timeout_us = timeout_us
        self.observer = observer
        self.detected_at_us: Optional[float] = None

    def start(self) -> None:
        """Begin heartbeating and monitoring."""
        self.watched.heartbeat(self.sim.now)
        self._schedule_beat()
        self._schedule_check()

    # -- internal ----------------------------------------------------------

    def _schedule_beat(self) -> None:
        self.sim.schedule_after(self.interval_us, self._beat, name="heartbeat")

    def _beat(self) -> None:
        self.watched.heartbeat(self.sim.now)
        if self.observer.enabled:
            self.observer.count("monitor.heartbeats")
        self._schedule_beat()

    def _schedule_check(self) -> None:
        self.sim.schedule_after(self.interval_us, self._check, name="hb-check")

    def _check(self) -> None:
        last = self.watched.last_heartbeat_us or 0.0
        if self.sim.now - last > self.timeout_us:
            self.detected_at_us = self.sim.now
            if self.observer.enabled:
                self.observer.count("monitor.missed_beats")
                self.observer.event(
                    "monitor", "heartbeat.missed",
                    node=self.watched.name,
                    last_heartbeat_us=last,
                    timeout_us=self.timeout_us,
                )
            self.on_failure()
            return
        self._schedule_check()
