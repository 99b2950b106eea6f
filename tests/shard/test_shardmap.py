"""The versioned shard map and its epoch fencing."""

import pytest

from repro.errors import ConfigurationError, StaleShardMapError
from repro.shard.shardmap import (
    STATUS_DEGRADED,
    STATUS_FAILING_OVER,
    STATUS_UP,
    ShardMap,
)


def make_map(shards=3):
    shard_map = ShardMap()
    for i in range(shards):
        shard_map.add_shard(f"s{i}/primary", f"s{i}/backup")
    return shard_map


def test_entries_start_up_at_epoch_zero():
    shard_map = make_map()
    assert len(shard_map.entries) == 3
    for i, entry in enumerate(shard_map.entries):
        assert entry.shard_id == i
        assert entry.epoch == 0
        assert entry.status == STATUS_UP


def test_fail_over_promotes_backup_and_bumps_epoch():
    shard_map = make_map()
    updated = shard_map.fail_over(1)
    assert updated.primary == "s1/backup"
    assert updated.backup == ""
    assert updated.epoch == 1
    assert updated.status == STATUS_FAILING_OVER
    # Other shards' entries are untouched.
    assert shard_map.entry(0).epoch == 0
    assert shard_map.entry(2).primary == "s2/primary"
    assert shard_map.epoch == 1


def test_mark_restored_keeps_the_epoch():
    shard_map = make_map()
    shard_map.fail_over(1)
    restored = shard_map.mark_restored(1)
    assert restored.status == STATUS_DEGRADED
    assert restored.epoch == 1  # routing did not change again


def test_check_epoch_fences_stale_requests():
    shard_map = make_map()
    shard_map.check_epoch(1, 0)  # fresh view passes
    shard_map.fail_over(1)
    with pytest.raises(StaleShardMapError) as excinfo:
        shard_map.check_epoch(1, 0)
    assert excinfo.value.shard_id == 1
    assert excinfo.value.seen_epoch == 0
    assert excinfo.value.current_epoch == 1
    shard_map.check_epoch(1, 1)


def test_snapshot_is_isolated_from_later_changes():
    shard_map = make_map()
    snap = shard_map.snapshot()
    shard_map.fail_over(0)
    assert snap.entry(0).primary == "s0/primary"
    assert snap.entry(0).epoch == 0
    assert shard_map.entry(0).primary == "s0/backup"
    fresh = shard_map.snapshot()
    assert fresh.entry(0).epoch == 1


def test_unknown_shard_rejected():
    shard_map = make_map(2)
    with pytest.raises(ConfigurationError):
        shard_map.entry(2)
    with pytest.raises(ConfigurationError):
        shard_map.snapshot().entry(-1)
