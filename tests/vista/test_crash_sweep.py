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

The same sweep runs over random histories (Hypothesis): a few in
tier-1, many more under the ``sweep`` marker (``pytest -m sweep``).
While their torn commit is open, V1 draws only single-range commits
and V2 only single-range, single-write ones (one diff run). One more
history runs V0's heap out inside ``set_range`` and aborts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError
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
    "range (V2: diff run by diff run) with no commit-intent store, so a "
    "crash between two copies recovers a mix of old and new",
)


def committed_images(history):
    """The committed image before each transaction, then after the
    whole history."""
    image = bytearray(INITIAL)
    images = [bytes(image)]
    for ranges, fate in history:
        if fate == "commit":
            for _range, writes in ranges:
                for offset, value in writes:
                    image[offset : offset + len(value)] = value
        images.append(bytes(image))
    return images


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


def drive(version, history, config, crash_at=0):
    """Run ``history`` on a fresh node, crash it with the last
    transaction in flight and recover; the counter crashes the node
    after store ``crash_at`` instead. A transaction bound to abort
    aborts where the heap runs out. Returns the rebooted node and the
    counter, whose ``phases`` hold ``(phase, transaction index)`` per
    store."""
    rio = RioMemory(f"sweep-{version}")
    engine = create_engine(version, rio, config)
    engine.initialize_data(0, INITIAL)
    counter = StoreCounter(rio, crash_at)
    try:
        for index, (ranges, fate) in enumerate(history):
            counter.phase = ("txn", index)
            engine.begin_transaction()
            try:
                for (offset, length), writes in ranges:
                    engine.set_range(offset, length)
                    for at, value in writes:
                        engine.write(at, value)
            except AllocationError:
                if fate != "abort":
                    raise
            if fate is not None:
                counter.phase = (fate, index)
                getattr(engine, f"{fate}_transaction")()
        reboot(rio)
        counter.phase = ("restart", len(history))
        counter.attach(rio)
        create_engine(version, rio, config, fresh=False).recover()
    except CrashPoint:
        pass
    reboot(rio)
    return rio, counter


def recover(version, rio, config, crash_at=0):
    """Attach to ``rio`` and recover, crashing the node after store
    ``crash_at`` of the recovery. Returns the recovered image (``None``
    if the crash landed) and the recovery's store count."""
    counter = StoreCounter(rio, crash_at)
    engine = create_engine(version, rio, config, fresh=False)
    try:
        engine.recover()
    except CrashPoint:
        reboot(rio)
        return None, len(counter.phases)
    image = engine.read(0, DB_BYTES)
    reboot(rio)
    return image, len(counter.phases)


def sweep(version, history=HISTORY, phase=None, config=CONFIG):
    """Crash after every store of ``phase`` (of any phase if None);
    recover to committed state, then crash that recovery after each of
    its stores and recover again to the same image."""
    images = committed_images(history)
    _rio, plan = drive(version, history, config)
    points = [
        (k, kind, index)
        for k, (kind, index) in enumerate(plan.phases, start=1)
        if phase in (None, kind)
    ]
    assert points
    for k, kind, index in points:
        allowed = images[index : index + (2 if kind == "commit" else 1)]
        rio, _counter = drive(version, history, config, crash_at=k)
        regions = list(rio.regions())
        crashed = [region.snapshot() for region in regions]
        image, stores = recover(version, rio, config)
        assert image in allowed, (
            f"{version}: a crash after store {k} ({kind} of transaction "
            f"{index}) recovered a database that is not committed state"
        )
        for j in range(1, stores + 1):
            for region, snapshot in zip(regions, crashed):
                region.load_snapshot(snapshot)
            interrupted, _stores = recover(version, rio, config, crash_at=j)
            assert interrupted is None
            again, _stores = recover(version, rio, config)
            assert again == image, (
                f"{version}: recovery from a crash after store {k} "
                f"({kind} of transaction {index}) crashed after its "
                f"store {j} and did not restart to the same image"
            )


@pytest.mark.parametrize("version, phase", [
    pytest.param(version, phase, marks=TORN_COMMIT)
    if (version, phase) in (("v1", "commit"), ("v2", "commit"))
    else (version, phase)
    for version in ENGINE_VERSIONS
    for phase in PHASES
])
def test_crash_at_every_store_recovers_the_committed_prefix(version, phase):
    sweep(version, phase=phase)


#: Random ranges and writes stay inside the first SPAN bytes, so they
#: overlap one another.
SPAN = 256


#: A commit's most ranges and most writes per range, per version. The
#: torn commit (ROADMAP item 7) limits V1 to one range, and V2 to one
#: write of a byte no earlier commit wrote: that changes one run of
#: words, as INITIAL's bytes are distinct.
COMMIT_SHAPE = {"v0": (3, 2), "v1": (1, 2), "v2": (1, 1), "v3": (3, 2)}


@st.composite
def histories(draw, version):
    """One to four transactions, each declaring one to three ranges
    with up to two writes apiece (a commit as :data:`COMMIT_SHAPE`
    allows); every fate, and the last transaction may be left in
    flight."""
    history = []
    committed = set()  # bytes a commit wrote
    count = draw(st.integers(1, 4))
    for index in range(count):
        fates = ["commit", "abort"] + ([None] if index == count - 1 else [])
        fate = draw(st.sampled_from(fates))
        most_ranges, most_writes = (
            COMMIT_SHAPE[version] if fate == "commit" else (3, 2))
        fresh = version == "v2" and fate == "commit"
        ranges = []
        for _ in range(draw(st.integers(1, most_ranges))):
            offset = draw(st.integers(0, SPAN - 1))
            end = draw(st.integers(offset + 1, min(SPAN, offset + 64)))
            writes = []
            for _ in range(draw(st.integers(0, most_writes))):
                at = draw(st.integers(offset, end - 1))
                size = draw(st.integers(1, end - at))
                value = draw(st.integers(0, 255).filter(
                    lambda byte: not (fresh and byte in committed)))
                writes.append((at, bytes([value]) * size))
                if fate == "commit":
                    committed.add(value)
            ranges.append(((offset, end - offset), writes))
        history.append((ranges, fate))
    return history


def _random_sweep(version, data):
    sweep(version, data.draw(histories(version)))


@pytest.mark.parametrize("version", ENGINE_VERSIONS)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_random_histories_recover_at_every_store(version, data):
    _random_sweep(version, data)


@pytest.mark.sweep
@pytest.mark.parametrize("version", ENGINE_VERSIONS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_histories_recover_at_every_store_exhaustively(version, data):
    _random_sweep(version, data)


@TORN_COMMIT
def test_v2_commit_of_one_range_with_two_diff_runs_is_atomic():
    # Found by the exhaustive sweep: one range, two writes a word apart
    # are two diff runs, copied to the mirror one at a time.
    sweep("v2", [([((0, 9), [(8, b"\x00"), (0, b"\x01")])], "commit")])


#: A heap that holds a few of the exhausting history's undo records.
SMALL_HEAP = EngineConfig(db_bytes=DB_BYTES, log_bytes=2048)
EXHAUSTING = (
    ([((0, 1), [(0, b"\xe0")])], "commit"),
    ([((256 * i, 256), [(256 * i, bytes([0xe1 + i]) * 256)])
      for i in range(8)], "abort"),
)


def test_v0_runs_out_of_heap_in_set_range_then_aborts_at_every_store():
    engine = create_engine("v0", RioMemory("exhaust"), SMALL_HEAP)
    engine.begin_transaction()
    with pytest.raises(AllocationError):
        for (offset, length), _writes in EXHAUSTING[1][0]:
            engine.set_range(offset, length)
    sweep("v0", EXHAUSTING, config=SMALL_HEAP)
