"""Rio recoverable memory: contents survive crashes; access while
crashed is the availability gap."""

import pytest

from repro.errors import CrashedError
from repro.memory.rio import RioMemory


def test_create_and_get_region():
    rio = RioMemory("n1")
    region = rio.create_region("db", 128)
    assert rio.get_region("db") is region
    assert rio.has_region("db")
    assert not rio.has_region("log")


def test_duplicate_region_rejected():
    rio = RioMemory("n1")
    rio.create_region("db", 128)
    with pytest.raises(ValueError):
        rio.create_region("db", 128)


def test_missing_region_keyerror():
    with pytest.raises(KeyError):
        RioMemory("n1").get_region("nope")


def test_contents_survive_crash_and_reboot():
    rio = RioMemory("n1")
    region = rio.create_region("db", 16)
    region.write(0, b"precious")
    rio.crash()
    rio.reboot()
    assert rio.get_region("db").read(0, 8) == b"precious"


def test_access_while_crashed_raises():
    rio = RioMemory("n1")
    rio.create_region("db", 16)
    rio.crash()
    with pytest.raises(CrashedError):
        rio.get_region("db")
    with pytest.raises(CrashedError):
        rio.create_region("log", 16)


def test_crash_detaches_observers():
    rio = RioMemory("n1")
    region = rio.create_region("db", 16)
    events = []
    region.add_observer(lambda *event: events.append(event))
    rio.crash()
    rio.reboot()
    rio.get_region("db").write(0, b"x")
    assert events == []  # a crashed node stops driving its mappings


def test_crash_count_and_idempotence():
    rio = RioMemory("n1")
    rio.crash()
    rio.crash()  # idempotent
    assert rio.crash_count == 1
    rio.reboot()
    rio.crash()
    assert rio.crash_count == 2


def test_regions_iterator():
    rio = RioMemory("n1")
    rio.create_region("a", 16)
    rio.create_region("b", 16)
    assert {region.name for region in rio.regions()} == {"n1/a", "n1/b"}


def test_repr_shows_state():
    rio = RioMemory("n1")
    assert "up" in repr(rio)
    rio.crash()
    assert "crashed" in repr(rio)
