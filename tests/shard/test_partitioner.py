"""Range partitioning of workload keyspaces."""

import pytest

from repro.errors import ConfigurationError
from repro.shard.partitioner import KeyRange, Partitioner
from repro.workloads import DebitCreditWorkload

MB = 1024 * 1024


def test_ranges_are_contiguous_and_cover_the_keyspace():
    part = Partitioner([3, 2, 5])
    assert len(part.ranges) == 3
    assert part.total_keys == 10
    assert part.ranges[0] == KeyRange(0, 0, 3)
    assert part.ranges[1] == KeyRange(1, 3, 5)
    assert part.ranges[2] == KeyRange(2, 5, 10)
    owners = [part.shard_of(key) for key in range(10)]
    assert owners == [0, 0, 0, 1, 1, 2, 2, 2, 2, 2]


def test_out_of_range_keys_rejected():
    part = Partitioner([2, 2])
    with pytest.raises(ConfigurationError):
        part.shard_of(-1)
    with pytest.raises(ConfigurationError):
        part.shard_of(4)


def test_empty_or_zero_shards_rejected():
    with pytest.raises(ConfigurationError):
        Partitioner([])
    with pytest.raises(ConfigurationError):
        Partitioner([2, 0, 2])


def test_for_debit_credit_reads_branches_off_the_layouts():
    shards = [DebitCreditWorkload(4 * MB, seed=i) for i in range(3)]
    part = Partitioner.for_debit_credit(shards)
    assert len(part.ranges) == 3
    assert part.total_keys == sum(w.branches.records for w in shards)


