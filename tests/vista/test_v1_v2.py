"""Versions 1 and 2: mirror maintenance by copying and by diffing."""

import pytest

from repro.memory.rio import RioMemory
from repro.fastpath.kernels import diff_runs_fast as diff_runs
from repro.vista import EngineConfig
from repro.vista.v1_mirror_copy import MirrorCopyEngine
from repro.vista.v2_mirror_diff import MirrorDiffEngine

CONFIG = EngineConfig(db_bytes=64 * 1024, log_bytes=32 * 1024)


def make(cls, name):
    return cls.create(RioMemory(name), CONFIG)


@pytest.mark.parametrize("cls", [MirrorCopyEngine, MirrorDiffEngine])
def test_mirror_tracks_committed_state(cls):
    engine = make(cls, f"{cls.VERSION}-mirror")
    engine.begin_transaction()
    engine.set_range(0, 8)
    engine.write(0, b"COMMITTD")
    engine.commit_transaction()
    assert engine.mirror.read(0, 8) == b"COMMITTD"


@pytest.mark.parametrize("cls", [MirrorCopyEngine, MirrorDiffEngine])
def test_mirror_not_updated_by_uncommitted_writes(cls):
    engine = make(cls, f"{cls.VERSION}-uncommitted")
    engine.begin_transaction()
    engine.set_range(0, 8)
    engine.write(0, b"DIRTYDAT")
    assert engine.mirror.read(0, 8) == b"\x00" * 8
    engine.abort_transaction()


@pytest.mark.parametrize("cls", [MirrorCopyEngine, MirrorDiffEngine])
def test_initialize_data_reaches_mirror(cls):
    engine = make(cls, f"{cls.VERSION}-init")
    engine.initialize_data(16, b"seed")
    assert engine.mirror.read(16, 4) == b"seed"
    # So an immediate abort restores the seed, not zeroes.
    engine.begin_transaction()
    engine.set_range(16, 4)
    engine.write(16, b"junk")
    engine.abort_transaction()
    assert engine.read(16, 4) == b"seed"


@pytest.mark.parametrize("cls", [MirrorCopyEngine, MirrorDiffEngine])
def test_restore_from_mirror_rebuilds_whole_database(cls):
    engine = make(cls, f"{cls.VERSION}-restore")
    engine.begin_transaction()
    engine.set_range(0, 8)
    engine.write(0, b"GOODDATA")
    engine.commit_transaction()
    engine.begin_transaction()
    engine.set_range(0, 8)
    engine.write(0, b"BADBADBA")
    # Backup-style takeover without the coordinate array:
    engine.restore_from_mirror()
    assert engine.read(0, 8) == b"GOODDATA"


def test_v1_copies_whole_ranges():
    engine = make(MirrorCopyEngine, "v1-bytes")
    engine.begin_transaction()
    engine.set_range(0, 100)
    engine.write(0, b"x")  # modify a single byte
    engine.commit_transaction()
    assert engine.counters.undo_bytes_copied == 100


def test_v2_writes_only_differences():
    engine = make(MirrorDiffEngine, "v2-bytes")
    engine.begin_transaction()
    engine.set_range(0, 100)
    engine.write(0, b"x")  # modify a single byte
    engine.commit_transaction()
    assert engine.counters.bytes_compared == 100
    assert engine.counters.undo_bytes_copied == 4  # one word
    assert engine.mirror.read(0, 1) == b"x"


def test_v2_no_changes_writes_nothing():
    engine = make(MirrorDiffEngine, "v2-nochange")
    engine.begin_transaction()
    engine.set_range(0, 64)
    engine.commit_transaction()
    assert engine.counters.undo_bytes_copied == 0


def test_range_array_persists_for_recovery():
    rio = RioMemory("v1-recover")
    engine = MirrorCopyEngine.create(rio, CONFIG)
    engine.initialize_data(0, b"original")
    engine.begin_transaction()
    engine.set_range(0, 8)
    engine.write(0, b"scribble")
    rio.crash()
    rio.reboot()
    recovered = MirrorCopyEngine.create(rio, CONFIG, fresh=False)
    assert recovered.range_array.count == 1  # the declared range survived
    recovered.recover()
    assert recovered.read(0, 8) == b"original"


class TestDiffRuns:
    def test_identical_buffers_no_runs(self):
        assert list(diff_runs(b"aaaa", b"aaaa")) == []

    def test_single_word_difference(self):
        old = b"\x00" * 16
        new = b"\x00" * 4 + b"abcd" + b"\x00" * 8
        assert list(diff_runs(old, new)) == [(4, 4)]

    def test_adjacent_differences_merge_into_one_run(self):
        old = b"\x00" * 16
        new = b"abcdefgh" + b"\x00" * 8
        assert list(diff_runs(old, new)) == [(0, 8)]

    def test_separate_runs(self):
        old = b"\x00" * 24
        new = b"abcd" + b"\x00" * 8 + b"wxyz" + b"\x00" * 8
        assert list(diff_runs(old, new)) == [(0, 4), (12, 4)]

    def test_trailing_partial_word(self):
        old = b"\x00" * 6
        new = b"\x00\x00\x00\x00\x00\x01"
        assert list(diff_runs(old, new)) == [(4, 2)]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            list(diff_runs(b"a", b"ab"))

    def test_whole_buffer_differs(self):
        assert list(diff_runs(b"aaaa" * 4, b"bbbb" * 4)) == [(0, 16)]
