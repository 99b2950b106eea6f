"""Crash a passive pair's primary at every store: the backup takes over
with exactly the committed prefix.

The fixed history of the engines' own crash sweep
(``tests/vista/test_crash_sweep.py``) runs on a
``PassiveReplicatedSystem``. A store counter registered on every
primary region *after* the replica's bindings sees store *k* after its
doubled copy has gone to the backup, and raises there: the primary
crashes after store *k* (``fail_primary``), the backup takes over
(``failover``), and its database must equal the committed-prefix
oracle; a crash inside ``commit_transaction`` may land on either side
of that commit. Both backup modes run: the regions V1 and V2 keep
primary-local travel too under ``ship_undo_log``.

The counter is a second, per-store observer, so every word batch of
the doubled regions takes the per-store loop here and the sweep
crashes between any two of its stores;
``tests/properties/test_word_lane_properties.py`` holds the batch to
that loop.
"""

from __future__ import annotations

import pytest

from repro.replication.passive import PassiveReplicatedSystem
from repro.vista import ENGINE_VERSIONS
from tests.vista.test_crash_sweep import (
    CONFIG,
    DB_BYTES,
    HISTORY,
    INITIAL,
    CrashPoint,
    StoreCounter,
    committed_images,
)

TORN_COMMIT = pytest.mark.xfail(
    strict=True,
    reason="V1/V2 torn commit: _on_commit refreshes the mirror range by "
    "range with no commit-intent store, so a primary crash between two "
    "copies leaves the backup's mirror (and its takeover) a mix of old "
    "and new",
)


def drive(version, ship_undo_log, crash_at=0):
    """Run :data:`HISTORY` on a fresh pair and crash its primary with
    the last transaction in flight — or after primary store
    ``crash_at``. Returns the database the backup took over with, and
    the counter, whose ``phases`` hold ``(phase, transaction index)``
    per store."""
    system = PassiveReplicatedSystem(version, CONFIG, ship_undo_log=ship_undo_log)
    system.initialize_data(0, INITIAL)
    system.sync_initial()
    counter = StoreCounter(system.primary_rio, crash_at)
    try:
        for index, (ranges, fate) in enumerate(HISTORY):
            counter.phase = ("txn", index)
            system.begin_transaction()
            for (offset, length), writes in ranges:
                system.set_range(offset, length)
                for at, value in writes:
                    system.write(at, value)
            if fate is not None:
                counter.phase = (fate, index)
                getattr(system, f"{fate}_transaction")()
    except CrashPoint:
        pass
    system.fail_primary()
    image = system.failover().read(0, DB_BYTES)
    system.close()
    return image, counter


@pytest.mark.parametrize("ship_undo_log", [False, True],
                         ids=["local-undo", "undo-shipped"])
@pytest.mark.parametrize("version", [
    pytest.param(version, marks=TORN_COMMIT) if version in ("v1", "v2")
    else version
    for version in ENGINE_VERSIONS
])
def test_a_primary_crash_at_every_store_fails_over_to_the_committed_prefix(
        version, ship_undo_log):
    images = committed_images(HISTORY)
    image, plan = drive(version, ship_undo_log)
    assert image == images[-1]
    assert plan.phases
    for k, (kind, index) in enumerate(plan.phases, start=1):
        image, _counter = drive(version, ship_undo_log, crash_at=k)
        allowed = images[index : index + (2 if kind == "commit" else 1)]
        assert image in allowed, (
            f"{version}: a primary crash after store {k} ({kind} of "
            f"transaction {index}) failed over to a database that is not "
            f"committed state"
        )
