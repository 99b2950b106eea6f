"""Record-array layouts over the database region."""

import pytest

from repro.errors import ConfigurationError
from repro.memory.rio import RioMemory
from repro.vista import EngineConfig, create_engine
from repro.workloads.layout import DatabaseLayout, Table


def make_engine():
    config = EngineConfig(db_bytes=64 * 1024, log_bytes=32 * 1024)
    return create_engine("v3", RioMemory("layout"), config)


def test_tables_packed_sequentially():
    layout = DatabaseLayout(10_000)
    a = layout.add_table("a", 100, 10, {"x": (0, 4)})
    b = layout.add_table("b", 50, 20, {"y": (0, 8)})
    assert a.base == 0
    assert b.base == 1000
    assert layout._cursor == 2000


def test_table_overflow_rejected():
    layout = DatabaseLayout(1000)
    with pytest.raises(ConfigurationError):
        layout.add_table("big", 100, 11, {})


def test_area_reservation():
    layout = DatabaseLayout(1000)
    base, size = layout.add_area("audit", 500)
    assert (base, size) == (0, 500)
    with pytest.raises(ConfigurationError):
        layout.add_area("too-big", 501)


def test_record_and_field_offsets():
    table = Table("t", base=100, record_bytes=20, records=5,
                  fields={"balance": (4, 4)})
    assert table.record_offset(0) == 100
    assert table.record_offset(3) == 160
    assert table.field_offset(3, "balance") == 164
    with pytest.raises(ConfigurationError):
        table.record_offset(5)


def test_field_overflow_rejected():
    with pytest.raises(ConfigurationError):
        Table("t", 0, 8, 1, {"wide": (4, 8)})


def test_zero_records_rejected():
    with pytest.raises(ConfigurationError):
        Table("t", 0, 8, 0, {})


def test_field_read_write_through_engine():
    engine = make_engine()
    table = Table("t", base=0, record_bytes=16, records=10,
                  fields={"balance": (0, 4), "total": (8, 8)})
    engine.begin_transaction()
    engine.set_range(table.record_offset(2), 16)
    table.write_field(engine, 2, "balance", -12345)
    table.write_field(engine, 2, "total", 1 << 40)
    engine.commit_transaction()
    assert table.read_field(engine, 2, "balance") == -12345
    assert table.read_field(engine, 2, "total") == 1 << 40


def test_add_to_field():
    engine = make_engine()
    table = Table("t", base=0, record_bytes=8, records=4,
                  fields={"n": (0, 4)})
    engine.begin_transaction()
    engine.set_range(0, 8)
    assert table.add_to_field(engine, 0, "n", 5) == 5
    assert table.add_to_field(engine, 0, "n", -2) == 3
    engine.commit_transaction()
    assert table.read_field(engine, 0, "n") == 3


class RefusingTarget:
    """A transaction target that fails the test if it is called."""

    def read(self, offset, length):
        raise AssertionError("the target was read")

    def write(self, offset, data):
        raise AssertionError("the target was written")


@pytest.mark.parametrize("index", [-1, 4])
@pytest.mark.parametrize("access", [
    lambda table, target, index: table.read_field(target, index, "n"),
    lambda table, target, index: table.write_field(target, index, "n", 1),
    lambda table, target, index: table.add_to_field(target, index, "n", 1),
], ids=["read_field", "write_field", "add_to_field"])
def test_field_access_out_of_range_refused_before_the_target(access, index):
    table = Table("t", base=0, record_bytes=8, records=4,
                  fields={"n": (0, 4)})
    with pytest.raises(ConfigurationError,
                       match=rf"^record {index} out of range for table 't' "
                             r"\(4 records\)$"):
        access(table, RefusingTarget(), index)
