"""A cell's identity is what drives its run, never the nominal
database size it is read at: nominal sizes only the working sets the
cost model prices, so reading one driven run at another size must be
indistinguishable from driving a fresh run declared at that size."""

import dataclasses

import pytest

from repro.experiments.common import (
    WORKLOADS,
    ExperimentContext,
    ExperimentSettings,
)
from repro.vista.factory import ENGINE_VERSIONS

MB = 1024 * 1024
DRIVEN, READ = 50 * MB, 1024 * MB
SETTINGS = ExperimentSettings(
    transactions=30, warmup=5, allocated_db_bytes=4 * MB,
    nominal_db_bytes=DRIVEN,
)

#: Every way a run can be driven: kind, version, the two passive flags.
DRIVES = (
    [("standalone", version, workload)
     for version in ("v0", "v1", "v3") for workload in WORKLOADS]
    + [("passive", version, workload, ship_undo_log, coalescing)
       for version in ENGINE_VERSIONS for workload in WORKLOADS
       for ship_undo_log, coalescing in ((False, True), (True, True), (False, False))]
    + [("active", workload, coalescing)
       for workload in WORKLOADS for coalescing in (True, False)]
)


@pytest.mark.parametrize("key", DRIVES, ids=lambda key: "-".join(map(str, key)))
def test_read_at_another_size_equals_a_run_driven_at_it(key):
    read = ExperimentContext(SETTINGS).read(key, READ)
    fresh = ExperimentContext(
        dataclasses.replace(SETTINGS, nominal_db_bytes=READ)
    ).driven(key)
    assert read.profile.working_set_bytes["db"] == READ
    for field in dataclasses.fields(read):  # counters, profile, trace, ...
        assert getattr(read, field.name) == getattr(fresh, field.name), field.name


@pytest.mark.parametrize("key, sized", [
    (("active", "debit-credit", True), ("db",)),
    (("passive", "v1", "order-entry", False, True), ("db", "mirror")),
])
def test_reads_at_three_sizes_do_not_alias(key, sized):
    """Table 8's rows must not collapse to the last size read."""
    ctx = ExperimentContext(SETTINGS)
    sizes = (10 * MB, 100 * MB, 1024 * MB)
    reads = [ctx.read(key, nominal) for nominal in sizes]
    cached = ctx.driven(key).profile.working_set_bytes
    for name in sized:
        assert [r.profile.working_set_bytes[name] for r in reads] == list(sizes)
        assert cached[name] == DRIVEN
    # Everything not sized by nominal is the driven run's own.
    for read in reads:
        assert read.counters is ctx.driven(key).counters
        assert set(read.profile.working_set_bytes) == set(cached)
