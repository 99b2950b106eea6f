"""Crash a replicated pair's primary at every store: the backup takes
over with exactly the committed prefix.

The fixed history of the engines' own crash sweep
(``tests/vista/test_crash_sweep.py``) runs on a pair. A store counter
registered on every primary region *after* the replica's bindings
sees store *k* after its doubled copy has gone to the backup, and
raises there: the primary crashes after store *k* (``fail_primary``),
the backup takes over (``failover``), and its database must equal the
committed-prefix oracle; a crash inside ``commit_transaction`` may land
on either side of that commit.

* **Passive** pairs run both backup modes: the regions V1 and V2 keep
  primary-local travel too under ``ship_undo_log``.
* **Active** pairs run 1-safe and 2-safe. The counter also sees every
  deposit into the backup's redo ring, so the primary crashes between
  any two stores of a publish as well as between the local commit's
  last store and the first ring deposit. The backup may hold any
  committed prefix at least as long as the commits that returned.

Both legs also run over the engines' random Hypothesis histories, with
their per-version :data:`COMMIT_SHAPE` limits (the active pair's engine
is V3): a few a pair in tier-1, many more under the ``sweep`` marker
(``pytest -m sweep``).

The counter is a second, per-store observer, so every word batch of
the doubled regions takes the per-store loop here and the sweep
crashes between any two of its stores;
``tests/properties/test_word_lane_properties.py`` holds the batch to
that loop.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.replication.active import ActiveReplicatedSystem
from repro.replication.commit_safety import CommitSafety
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
    histories,
)

TORN_COMMIT = pytest.mark.xfail(
    strict=True,
    reason="V1/V2 torn commit: _on_commit refreshes the mirror range by "
    "range with no commit-intent store, so a primary crash between two "
    "copies leaves the backup's mirror (and its takeover) a mix of old "
    "and new",
)


def drive(make, history, crash_at=0):
    """Run ``history`` on a fresh pair ``make()`` and crash its
    primary with the last transaction in flight — or after store
    ``crash_at`` of the primary (or of an active pair's ring). Returns
    the database the backup took over with, and the counter, whose
    ``phases`` hold ``(phase, transaction index)`` per store."""
    system = make()
    system.initialize_data(0, INITIAL)
    system.sync_initial()
    counter = StoreCounter(system.primary_rio, crash_at)
    if isinstance(system, ActiveReplicatedSystem):
        system.ring.add_observer(counter)
    try:
        for index, (ranges, fate) in enumerate(history):
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


def sweep(make, label, history=HISTORY):
    """Crash after every store of ``history``; each takeover must hold
    a committed prefix (either side of a commit in progress)."""
    images = committed_images(history)
    image, plan = drive(make, history)
    assert image == images[-1]
    assert plan.phases
    for k, (kind, index) in enumerate(plan.phases, start=1):
        image, _counter = drive(make, history, crash_at=k)
        allowed = images[index : index + (2 if kind == "commit" else 1)]
        assert image in allowed, (
            f"{label}: a primary crash after store {k} ({kind} of "
            f"transaction {index}) failed over to a database that is not "
            f"committed state"
        )
    return len(plan.phases)


@pytest.mark.parametrize("ship_undo_log", [False, True],
                         ids=["local-undo", "undo-shipped"])
@pytest.mark.parametrize("version", [
    pytest.param(version, marks=TORN_COMMIT) if version in ("v1", "v2")
    else version
    for version in ENGINE_VERSIONS
])
def test_a_primary_crash_at_every_store_fails_over_to_the_committed_prefix(
        version, ship_undo_log):
    sweep(lambda: PassiveReplicatedSystem(
        version, CONFIG, ship_undo_log=ship_undo_log), version)


@pytest.mark.parametrize("safety", list(CommitSafety),
                         ids=[safety.value for safety in CommitSafety])
def test_an_active_primary_crash_at_every_store_keeps_a_committed_prefix(
        safety):
    points = sweep(lambda: ActiveReplicatedSystem(CONFIG, safety=safety),
                   safety.value)
    assert points == 66  # primary stores and ring deposits of HISTORY


SAFETIES = [safety.value for safety in CommitSafety]
#: Every pair the random histories run on: each engine in both backup
#: modes, then the active pair at both safety levels.
PAIRS = [f"{version}-{mode}" for version in ENGINE_VERSIONS
         for mode in ("local-undo", "undo-shipped")] + SAFETIES


def _random_sweep(pair, data):
    if pair in SAFETIES:
        version = "v3"
        make = partial(ActiveReplicatedSystem, CONFIG,
                       safety=CommitSafety(pair))
    else:
        version, mode = pair.split("-", 1)
        make = partial(PassiveReplicatedSystem, version, CONFIG,
                       ship_undo_log=mode == "undo-shipped")
    sweep(make, pair, data.draw(histories(version)))


@pytest.mark.parametrize("pair", PAIRS)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_random_histories_fail_over_to_the_committed_prefix(pair, data):
    _random_sweep(pair, data)


@pytest.mark.sweep
@pytest.mark.parametrize("pair", PAIRS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_histories_fail_over_to_the_committed_prefix_exhaustively(
        pair, data):
    _random_sweep(pair, data)
