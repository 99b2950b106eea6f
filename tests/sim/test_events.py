"""Event queues: deterministic ordering, pop_until, peek_time.

Every test runs against both implementations — the tuple heap and
the bucketed wheel — which must be behaviorally identical.
"""

import pytest

from repro.sim.events import (
    BucketedEventQueue,
    EventQueue,
    SHAPE_IRREGULAR,
    SHAPE_SHARED,
    default_event_queue,
)


@pytest.fixture(params=[EventQueue, BucketedEventQueue])
def queue_cls(request):
    return request.param


def test_pop_in_time_order(queue_cls):
    queue = queue_cls()
    fired = []
    queue.push(3.0, lambda: fired.append(3))
    queue.push(1.0, lambda: fired.append(1))
    queue.push(2.0, lambda: fired.append(2))
    while queue:
        queue.pop_until(None).action()
    assert fired == [1, 2, 3]


def test_ties_break_by_insertion_order(queue_cls):
    queue = queue_cls()
    fired = []
    for index in range(10):
        queue.push(5.0, lambda i=index: fired.append(i))
    while queue:
        queue.pop_until(None).action()
    assert fired == list(range(10))


def test_peek_time_is_the_earliest(queue_cls):
    queue = queue_cls()
    queue.push(2.0, lambda: None)
    queue.push(1.0, lambda: None)
    assert queue.peek_time() == 1.0
    queue.pop_until(None)
    assert queue.peek_time() == 2.0


def test_peek_time_empty(queue_cls):
    assert queue_cls().peek_time() is None


def test_len_and_bool(queue_cls):
    queue = queue_cls()
    assert not queue
    queue.push(1.0, lambda: None)
    assert queue
    assert len(queue) == 1


def test_pop_until_pops_only_due_events(queue_cls):
    queue = queue_cls()
    queue.push(1.0, lambda: None, name="a")
    queue.push(2.0, lambda: None, name="b")
    queue.push(4.0, lambda: None, name="c")
    assert queue.pop_until(2.0).name == "a"
    assert queue.pop_until(2.0).name == "b"
    assert queue.pop_until(2.0) is None
    assert len(queue) == 1  # "c" untouched
    assert queue.pop_until(None).name == "c"


def test_pop_until_empty_queue(queue_cls):
    assert queue_cls().pop_until(5.0) is None
    assert queue_cls().pop_until(None) is None


def test_same_time_bucket_grows_and_drains(queue_cls):
    queue = queue_cls()
    fired = []
    for index in range(5):
        queue.push(2.0, lambda i=index: fired.append(i))
    queue.push(1.0, lambda: fired.append("early"))
    assert len(queue) == 6
    while queue:
        queue.pop_until(None).action()
    assert fired == ["early", 0, 1, 2, 3, 4]


def test_push_while_draining_same_time_keeps_fifo(queue_cls):
    queue = queue_cls()
    fired = []
    def first():
        fired.append("first")
        queue.push(1.0, lambda: fired.append("late-same-time"))
    queue.push(1.0, first)
    queue.push(1.0, lambda: fired.append("second"))
    while queue:
        queue.pop_until(None).action()
    assert fired == ["first", "second", "late-same-time"]


def test_default_event_queue_shapes():
    assert isinstance(default_event_queue(SHAPE_SHARED), BucketedEventQueue)
    assert isinstance(default_event_queue(SHAPE_IRREGULAR), EventQueue)
    assert isinstance(default_event_queue(), EventQueue)
