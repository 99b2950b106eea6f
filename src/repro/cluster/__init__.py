"""Cluster runtime: nodes, failure detection, the replicated pair.

The paper scopes out crash detection and group-view management,
pointing at Microsoft Cluster Service for well-known solutions
(Section 1). This package provides the minimum the examples and
failover tests need — simulated nodes owning Rio memory and a Memory
Channel interface, a heartbeat failure detector run on the
discrete-event kernel, and an N-member membership view with
deterministic seniority-ordered promotion — implemented here as an
*extension* beyond the paper. The :mod:`repro.shard` package stacks N
replicated pairs from this package behind one shard map, and its
``RoutedCluster`` schedules every fault.
"""

from repro.cluster.node import Node
from repro.cluster.membership import HeartbeatMonitor, Membership

__all__ = [
    "Node",
    "HeartbeatMonitor",
    "Membership",
]
