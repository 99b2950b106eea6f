"""Crash at every store: each engine recovers the committed prefix, and
its recovery survives a crash at any of its own stores.

One fixed history runs on a fresh node under a region observer that
raises after store *k*, which crashes the node there. The node reboots,
attaches (``fresh=False``) and recovers, and its database must equal
the committed-prefix oracle; a crash inside ``commit_transaction`` may
land on either side of that commit. Then a second crash is placed
after every store *j* of that recovery, and a further recovery must
reach the same image: recovery is restartable.

A crash point's phase is the operation its store belongs to: a
transaction's begin, set_range or write (``txn``), its ``commit``, its
``abort``, or the recovery that ends the history (``restart``), run
after the node crashes with the last transaction in flight.
"""

from __future__ import annotations

import pytest

from repro.memory.rio import RioMemory
from repro.vista import ENGINE_VERSIONS, EngineConfig, create_engine

DB_BYTES = 4096
CONFIG = EngineConfig(db_bytes=DB_BYTES, log_bytes=64 * 1024)
#: Distinct bytes everywhere, so a stale pre-image restored anywhere
#: shows in the image.
INITIAL = bytes(range(256)) * (DB_BYTES // 256)

#: ``(ranges, fate)`` per transaction: each range is ``((offset,
#: length), writes)`` and each write ``(offset, bytes)``; a fate of
#: ``None`` leaves the transaction in flight when the node crashes.
HISTORY = (
    ([((0, 1), [(0, b"\xa1")])], "commit"),
    ([((0, 1), [(0, b"\xa2")])], "commit"),
    # The stale-header history's commit (see test_engine_semantics).
    ([((0, 1), []), ((0, 44), []),
      ((0, 64), [(39, bytes(11) + b"\x01")]), ((51, 3), [])], "commit"),
    ([((0, 5), [(0, b"\xb0" * 5)]), ((0, 50), [(10, b"\xb1" * 20)]),
      ((0, 50), [(30, b"\xb2" * 20)])], "abort"),
    ([((100, 16), [(100, b"\xc0" * 16)]),
      ((200, 8), [(200, b"\xc1" * 8)])], "commit"),
    ([((100, 8), [(100, b"\xd0" * 8)]), ((0, 64), [(0, b"\xd1" * 64)])],
     None),
)

PHASES = ("txn", "commit", "abort", "restart")

TORN_COMMIT = pytest.mark.xfail(
    strict=True,
    reason="V1/V2 torn commit: _on_commit refreshes the mirror range by "
    "range with no commit-intent store, so a crash between two ranges' "
    "copies recovers a mix of old and new",
)


def committed_images():
    """The committed image before each transaction, then after the
    whole history."""
    image = bytearray(INITIAL)
    images = [bytes(image)]
    for ranges, fate in HISTORY:
        if fate == "commit":
            for _range, writes in ranges:
                for offset, value in writes:
                    image[offset : offset + len(value)] = value
        images.append(bytes(image))
    return images


IMAGES = committed_images()


class CrashPoint(Exception):
    """Raised by a :class:`StoreCounter` at its crash point."""


class StoreCounter:
    """A region observer that labels every store with the phase in
    progress and raises after store ``crash_at`` (0: never)."""

    def __init__(self, rio: RioMemory, crash_at: int = 0):
        self.crash_at = crash_at
        self.phase = None
        self.phases = []
        self.attach(rio)

    def attach(self, rio: RioMemory) -> None:
        # A crash detaches every observer, so attach after each reboot.
        for region in rio.regions():
            region.add_observer(self)

    def __call__(self, offset, length, category):
        self.phases.append(self.phase)
        if len(self.phases) == self.crash_at:
            raise CrashPoint


def reboot(rio: RioMemory) -> None:
    rio.crash()
    rio.reboot()


def drive(version, crash_at=0):
    """Run HISTORY on a fresh node, crash it with the last transaction
    in flight and recover; the counter crashes the node after store
    ``crash_at`` instead. Returns the rebooted node and the counter,
    whose ``phases`` hold ``(phase, transaction index)`` per store."""
    rio = RioMemory(f"sweep-{version}")
    engine = create_engine(version, rio, CONFIG)
    engine.initialize_data(0, INITIAL)
    counter = StoreCounter(rio, crash_at)
    try:
        for index, (ranges, fate) in enumerate(HISTORY):
            counter.phase = ("txn", index)
            engine.begin_transaction()
            for (offset, length), writes in ranges:
                engine.set_range(offset, length)
                for at, value in writes:
                    engine.write(at, value)
            if fate is not None:
                counter.phase = (fate, index)
                getattr(engine, f"{fate}_transaction")()
        reboot(rio)
        counter.phase = ("restart", len(HISTORY))
        counter.attach(rio)
        create_engine(version, rio, CONFIG, fresh=False).recover()
    except CrashPoint:
        pass
    reboot(rio)
    return rio, counter


def recover(version, rio, crash_at=0):
    """Attach to ``rio`` and recover, crashing the node after store
    ``crash_at`` of the recovery. Returns the recovered image (``None``
    if the crash landed) and the recovery's store count."""
    counter = StoreCounter(rio, crash_at)
    engine = create_engine(version, rio, CONFIG, fresh=False)
    try:
        engine.recover()
    except CrashPoint:
        reboot(rio)
        return None, len(counter.phases)
    image = engine.read(0, DB_BYTES)
    reboot(rio)
    return image, len(counter.phases)


@pytest.mark.parametrize("version, phase", [
    pytest.param(version, phase, marks=TORN_COMMIT)
    if (version, phase) in (("v1", "commit"), ("v2", "commit"))
    else (version, phase)
    for version in ENGINE_VERSIONS
    for phase in PHASES
])
def test_crash_at_every_store_recovers_the_committed_prefix(version, phase):
    _rio, plan = drive(version)
    points = [
        (k, index)
        for k, (kind, index) in enumerate(plan.phases, start=1)
        if kind == phase
    ]
    assert points
    for k, index in points:
        allowed = IMAGES[index : index + (2 if phase == "commit" else 1)]
        rio, _counter = drive(version, crash_at=k)
        regions = list(rio.regions())
        crashed = [region.snapshot() for region in regions]
        image, stores = recover(version, rio)
        assert image in allowed, (
            f"{version}: a crash after store {k} ({phase} of transaction "
            f"{index}) recovered a database that is not committed state"
        )
        for j in range(1, stores + 1):
            for region, snapshot in zip(regions, crashed):
                region.load_snapshot(snapshot)
            interrupted, _stores = recover(version, rio, crash_at=j)
            assert interrupted is None
            again, _stores = recover(version, rio)
            assert again == image, (
                f"{version}: recovery from a crash after store {k} "
                f"({phase} of transaction {index}) crashed after its "
                f"store {j} and did not restart to the same image"
            )
