"""Node: a name, a crashed flag and a heartbeat; a pair's Rio memory
and Memory Channel interfaces are its replicated system's."""

import pytest

from repro.cluster.node import Node
from repro.errors import CrashedError
from repro.memory.rio import RioMemory
from repro.san.memory_channel import MemoryChannelInterface
from repro.shard import ShardedCluster
from repro.vista import EngineConfig

MB = 1024 * 1024


def test_crash_takes_everything_down(monkeypatch):
    """A pair builds one Rio memory and one interface per node, both
    its system's, and a primary crash takes the node and that memory
    down together."""
    built = {RioMemory: 0, MemoryChannelInterface: 0}
    for cls in built:
        def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    cluster = ShardedCluster(
        2, mode="active",
        config=EngineConfig(db_bytes=4 * MB, log_bytes=512 * 1024),
        heartbeat_interval_us=100.0, heartbeat_timeout_us=500.0,
    )
    assert built == {RioMemory: 4, MemoryChannelInterface: 4}
    cluster.crash(0, 0, at_us=1_000.0)
    cluster.run_until(10_000.0)
    pair = cluster.pairs[0]
    assert pair.primary_node.crashed
    with pytest.raises(CrashedError):
        pair.system.primary_rio.get_region("db")


def test_heartbeat_ignored_while_crashed():
    node = Node("n1")
    node.heartbeat(1.0)
    node.crash()
    node.heartbeat(2.0)
    assert node.last_heartbeat_us == 1.0


def test_repr():
    node = Node("n1")
    assert "up" in repr(node)
    node.crash()
    assert "crashed" in repr(node)
