"""A cell's system dies when it has been measured: the context closes
it as soon as ``run_workload`` returns, so every region is freed by
reference count — with the cyclic collector switched off, measuring a
cell leaves no ``MemoryRegion`` behind. (What ``close()`` does to the
system itself is ``tests/replication/test_close.py``.)"""

import gc

import pytest

from repro.experiments import extension_recovery, table4_5, table6_7
from repro.experiments.common import (
    ExperimentContext,
    ExperimentSettings,
    active_cell,
    passive_cell,
    standalone_cell,
)
from repro.memory.region import MemoryRegion
from repro.replication.passive import PassiveReplicatedSystem

MB = 1024 * 1024
SETTINGS = ExperimentSettings(transactions=20, warmup=2, allocated_db_bytes=4 * MB)


def _live_regions() -> int:
    return sum(isinstance(obj, MemoryRegion) for obj in gc.get_objects())


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


MEASUREMENTS = {
    **{
        f"passive-{version}":
            lambda ctx, version=version:
                ctx.read(passive_cell(version, "debit-credit"))
        for version in ("v0", "v1", "v2", "v3")
    },
    "passive-v1-undo-shipped":
        lambda ctx: ctx.read(passive_cell("v1", "order-entry", ship_undo_log=True)),
    "active": lambda ctx: ctx.read(active_cell("debit-credit")),
    "standalone-v0": lambda ctx: ctx.read(standalone_cell("v0", "debit-credit")),
    "recovery": lambda ctx: extension_recovery.run(),
}


@pytest.mark.parametrize("name", sorted(MEASUREMENTS))
def test_measuring_leaves_no_region_alive(collector_off, name):
    ctx = ExperimentContext(SETTINGS)
    before = _live_regions()
    result = MEASUREMENTS[name](ctx)
    assert result is not None
    assert _live_regions() == before


def test_an_unclosed_pair_does_outlive_its_last_reference(collector_off):
    """The leak ``close()`` exists for — and the proof the counting
    above can see one."""
    before = _live_regions()
    PassiveReplicatedSystem("v3", SETTINGS.engine_config())
    assert _live_regions() > before


def test_a_failed_measurement_still_closes_its_system(collector_off, monkeypatch):
    from repro.experiments import common

    def explode(*_args, **_kwargs):
        raise RuntimeError("verify failed")

    monkeypatch.setattr(common, "run_workload", explode)
    ctx = ExperimentContext(SETTINGS)
    before = _live_regions()
    with pytest.raises(RuntimeError):
        ctx.read(passive_cell("v1", "debit-credit"))
    assert _live_regions() == before


def test_closed_cells_still_render_their_table_rows():
    ctx = ExperimentContext(SETTINGS)
    assert "Version 1" in table4_5.run(ctx).table4().render()
    assert "Active" in table6_7.run(ctx).table6().render()
