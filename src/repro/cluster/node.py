"""A simulated cluster node, as failure detection sees it.

A node is a name, a ``crashed`` flag and its last heartbeat: what a
:class:`~repro.cluster.membership.HeartbeatMonitor` watches. A pair's
Rio memories and Memory Channel interfaces belong to its replicated
system (``primary_rio`` / ``backup_rio`` and their interfaces), which
``fail_primary()`` crashes together with the node.
"""

from __future__ import annotations

from typing import Optional


class Node:
    """One commodity server: up until it crashes, then silent."""

    def __init__(self, name: str):
        self.name = name
        self.crashed = False
        self.last_heartbeat_us: Optional[float] = None

    def crash(self) -> None:
        """Fail-stop: the node stops heartbeating."""
        self.crashed = True

    def heartbeat(self, now_us: float) -> None:
        """Record a heartbeat emission (ignored while crashed)."""
        if not self.crashed:
            self.last_heartbeat_us = now_us

    def __repr__(self) -> str:
        state = "crashed" if self.crashed else "up"
        return f"Node({self.name!r}, {state})"
