"""ReplicatedCluster: the wired-up two-node pair with detection and
takeover, driven as the one unit of a one-shard cluster."""

import pytest

from repro.errors import ConfigurationError
from repro.shard import ShardedCluster
from repro.vista import EngineConfig
from repro.workloads import DebitCreditWorkload

MB = 1024 * 1024
CONFIG = EngineConfig(db_bytes=4 * MB, log_bytes=512 * 1024)


def make(mode="active", version="v3"):
    """A one-pair cluster and its pair."""
    cluster = ShardedCluster(
        1, mode=mode, version=version, config=CONFIG,
        heartbeat_interval_us=100.0, heartbeat_timeout_us=500.0,
    )
    return cluster, cluster.pairs[0]


def run(workload, pair, count):
    for _ in range(count):
        workload.run_transaction(pair.serving)


def test_unknown_mode_rejected():
    with pytest.raises(ConfigurationError):
        ShardedCluster(1, mode="weird")


@pytest.mark.parametrize("mode,version", [
    ("active", "v3"), ("passive", "v0"), ("passive", "v1"),
    ("passive", "v2"), ("passive", "v3"),
])
def test_crash_detection_and_takeover(mode, version):
    cluster, pair = make(mode, version)
    workload = DebitCreditWorkload(CONFIG.db_bytes, seed=17)
    workload.setup(pair.serving)
    pair.system.sync_initial()
    run(workload, pair, 30)
    cluster.crash(0, 0, at_us=2_000.0)
    cluster.run_until(20_000.0)

    assert pair.takeover is not None
    report = pair.takeover
    assert report.crash_at_us == 2_000.0
    assert 0 < report.detection_us <= 600.0 + 1e-9
    assert report.downtime_us >= report.detection_us
    assert pair.membership.primary == "shard0/backup"

    # The promoted backup serves and holds the committed state.
    workload.verify(pair.serving)
    run(workload, pair, 10)
    workload.verify(pair.serving)


def test_mirror_versions_restore_more_bytes():
    results = {}
    for version in ("v1", "v3"):
        cluster, pair = make("passive", version)
        workload = DebitCreditWorkload(CONFIG.db_bytes, seed=17)
        workload.setup(pair.serving)
        pair.system.sync_initial()
        run(workload, pair, 10)
        cluster.crash(0, 0, at_us=1_000.0)
        cluster.run_until(10_000.0)
        results[version] = pair.takeover
    assert results["v1"].bytes_restored == CONFIG.db_bytes
    assert results["v3"].bytes_restored < 4096
    assert results["v1"].downtime_us > results["v3"].downtime_us


def test_no_takeover_without_crash():
    cluster, pair = make()
    cluster.run_until(10_000.0)
    assert pair.takeover is None
    assert pair.membership.primary == "shard0/primary"


def test_repr():
    _cluster, pair = make()
    assert "normal" in repr(pair)
