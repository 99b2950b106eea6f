"""Write-through bindings: write doubling keeps the backup's twin
regions byte-identical to the primary's."""

import pytest

from repro.errors import ConfigurationError
from repro.memory.region import MemoryRegion, WriteCategory
from repro.memory.rio import RioMemory
from repro.san.memory_channel import MemoryChannelInterface
from repro.replication.writethrough import ReplicaBinding, WriteThroughReplica


def make_replica():
    interface = MemoryChannelInterface("primary")
    backup = RioMemory("backup")
    return interface, WriteThroughReplica(interface, backup)


def test_bound_region_mirrors_every_write():
    interface, replica = make_replica()
    local = MemoryRegion("db", 256)
    replica.bind(local, "db")
    local.write(10, b"doubled")
    assert replica.backup_regions["db"].read(10, 7) == b"doubled"


def test_category_preserved_in_traffic_accounting():
    interface, replica = make_replica()
    local = MemoryRegion("db", 256)
    replica.bind(local, "db")
    local.write(0, b"abcd", WriteCategory.UNDO)
    assert interface.bytes_by_category[WriteCategory.UNDO] == 4


def test_fragmented_binding_emits_word_packets():
    interface, replica = make_replica()
    local = MemoryRegion("mirror", 256)
    replica.bind(local, "mirror", fragmented=True)
    local.write(0, b"\x01" * 16)
    assert interface.trace.histogram == {4: 4}
    assert replica.backup_regions["mirror"].read(0, 16) == b"\x01" * 16


def test_unfragmented_binding_coalesces():
    interface, replica = make_replica()
    local = MemoryRegion("ulog", 256)
    replica.bind(local, "ulog")
    local.write(0, b"\x01" * 16)
    interface.barrier()
    assert interface.trace.histogram == {16: 1}


def test_bind_all_with_fragment_set():
    interface, replica = make_replica()
    regions = {
        "db": MemoryRegion("db", 128),
        "mirror": MemoryRegion("mirror", 128),
    }
    replica.bind_all(regions, ["db", "mirror"], fragmented_names=("mirror",))
    fragmented = {binding.local.name: binding.fragmented
                  for binding in replica.bindings}
    assert fragmented == {"db": False, "mirror": True}


def test_sync_initial_copies_without_traffic():
    interface, replica = make_replica()
    local = MemoryRegion("db", 64)
    local.poke(0, b"image")
    replica.bind(local, "db")
    replica.sync_initial({"db": local})
    assert replica.backup_regions["db"].read(0, 5) == b"image"
    assert interface.bytes_sent == 0  # mapping-time copy is free


def test_detach_stops_doubling():
    _interface, replica = make_replica()
    local = MemoryRegion("db", 64)
    replica.bind(local, "db")
    replica.detach_all()
    local.write(0, b"after")
    assert replica.backup_regions["db"].read(0, 5) == b"\x00" * 5


def test_detach_is_safe_after_observer_cleared():
    _interface, replica = make_replica()
    local = MemoryRegion("db", 64)
    binding = replica.bind(local, "db")
    local._observers.clear()  # what a node crash does
    binding.detach()  # must not raise


def test_twin_region_reuses_existing():
    _interface, replica = make_replica()
    first = replica.twin_region("db", 64)
    second = replica.twin_region("db", 64)
    assert first is second


def test_forwarded_write_counter():
    _interface, replica = make_replica()
    local = MemoryRegion("db", 64)
    replica.bind(local, "db")
    local.write(0, b"a")
    local.write(1, b"b")
    assert replica.backup_regions["db"].writes_observed == 2


def test_twin_of_another_size_is_refused():
    """A window onto a smaller existing twin would take the local
    region's stores past its end."""
    interface, replica = make_replica()
    replica.backup_rio.create_region("db", 64)
    local = MemoryRegion("db", 256)
    with pytest.raises(ConfigurationError, match=r"'db' is 64 bytes, its primary 256"):
        replica.bind(local, "db")
    with pytest.raises(ConfigurationError):
        replica.twin_region("db", 128)
    local.write(100, b"hello")  # not bound: nothing is forwarded
    assert (interface.io_stores, list(interface._mappings)) == (0, [])
    assert replica.twin_region("db", 64).size == 64
