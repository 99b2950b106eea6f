"""Heartbeat failure detection and membership views on the DES."""

import pytest

from repro.cluster.membership import HeartbeatMonitor, Membership
from repro.cluster.node import Node
from repro.sim.engine import Simulator


def test_healthy_primary_never_declared_dead():
    sim = Simulator()
    node = Node("primary")
    failures = []
    monitor = HeartbeatMonitor(
        sim, node, lambda: failures.append(sim.now),
        interval_us=100.0, timeout_us=500.0,
    )
    monitor.start()
    sim.run(until=10_000.0)
    assert failures == []


def test_crash_detected_within_timeout_plus_poll():
    sim = Simulator()
    node = Node("primary")
    failures = []
    monitor = HeartbeatMonitor(
        sim, node, lambda: failures.append(sim.now),
        interval_us=100.0, timeout_us=500.0,
    )
    monitor.start()
    sim.schedule_at(2_000.0, node.crash)
    sim.run(until=10_000.0)
    assert len(failures) == 1
    detection_latency = failures[0] - 2_000.0
    assert 0 < detection_latency <= 500.0 + 100.0 + 1e-9


def test_detection_fires_once():
    sim = Simulator()
    node = Node("primary")
    failures = []
    monitor = HeartbeatMonitor(
        sim, node, lambda: failures.append(sim.now),
        interval_us=50.0, timeout_us=200.0,
    )
    monitor.start()
    sim.schedule_at(100.0, node.crash)
    sim.run(until=5_000.0)
    assert len(failures) == 1
    assert monitor.detected_at_us == failures[0]


def test_timeout_must_exceed_interval():
    sim = Simulator()
    with pytest.raises(ValueError):
        HeartbeatMonitor(sim, Node("n"), lambda: None,
                         interval_us=100.0, timeout_us=100.0)


class TestMembership:
    def test_fail_member_promotes_survivor(self):
        view = Membership(members=["primary", "backup"], primary="primary")
        view.fail("primary")
        assert view.primary == "backup"
        assert view.members == ["backup"]
        assert view.view_id == 1

    def test_fail_non_primary_keeps_leader(self):
        view = Membership(members=["primary", "backup"], primary="primary")
        view.fail("backup")
        assert view.primary == "primary"

    def test_fail_unknown_is_noop(self):
        view = Membership(members=["a"], primary="a")
        view.fail("ghost")
        assert view.view_id == 0
        assert len(view.history) == 1  # just the initial view

    def test_last_member_failure_rejected(self):
        view = Membership(members=["a"], primary="a")
        with pytest.raises(ValueError):
            view.fail("a")

    def test_primary_must_be_a_member(self):
        with pytest.raises(ValueError):
            Membership(members=["a", "b"], primary="ghost")

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError):
            Membership(members=["a", "a"], primary="a")

    def test_history_records_every_view_including_initial(self):
        view = Membership(members=["a", "b", "c"], primary="a")
        view.fail("a")
        view.fail("b")
        assert view.history == [
            (0, ("a", "b", "c"), "a"),
            (1, ("b", "c"), "b"),
            (2, ("c",), "c"),
        ]


class TestMultiMemberViews:
    def test_promotion_is_seniority_ordered_not_list_ordered(self):
        view = Membership(members=["a", "b", "c", "d"], primary="a")
        # b fails first, then the primary: promotion must pick c (the
        # most senior survivor), never depend on removal order.
        view.fail("b")
        view.fail("a")
        assert view.primary == "c"
        assert view.members == ["c", "d"]

    def test_promotion_chain_is_deterministic(self):
        names = ["n0", "n1", "n2", "n3", "n4"]
        view = Membership(members=list(names), primary="n0")
        for expected in ("n1", "n2", "n3", "n4"):
            view.fail(view.primary)
            assert view.primary == expected

    def test_eight_member_view_history_replays_failures(self):
        members = [f"shard{i}/{role}" for i in range(4)
                   for role in ("primary", "backup")]
        view = Membership(members=list(members), primary=members[0])
        view.fail("shard2/primary")
        view.fail("shard0/primary")
        assert len(view.history) == 3
        final_id, final_members, final_primary = view.history[-1]
        assert final_id == view.view_id == 2
        assert len(final_members) == 6
        assert final_primary == "shard0/backup"
