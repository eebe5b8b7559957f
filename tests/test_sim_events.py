"""Tests for the event queue."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventQueue


def test_events_pop_in_time_order():
    queue = EventQueue()
    seen = []
    queue.push(3.0, lambda: seen.append("c"))
    queue.push(1.0, lambda: seen.append("a"))
    queue.push(2.0, lambda: seen.append("b"))
    while queue:
        queue.pop().callback()
    assert seen == ["a", "b", "c"]


def test_ties_broken_by_priority_then_insertion_order():
    queue = EventQueue()
    seen = []
    queue.push(1.0, lambda: seen.append("late"), priority=5)
    queue.push(1.0, lambda: seen.append("first"), priority=0)
    queue.push(1.0, lambda: seen.append("second"), priority=0)
    order = []
    while queue:
        order.append(queue.pop())
    for event in order:
        event.callback()
    assert seen == ["first", "second", "late"]


def test_len_counts_pending_events():
    queue = EventQueue()
    assert len(queue) == 0
    e1 = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert len(queue) == 2
    queue.cancel(e1)
    assert len(queue) == 1


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    seen = []
    keep = queue.push(1.0, lambda: seen.append("keep"))
    drop = queue.push(0.5, lambda: seen.append("drop"))
    queue.cancel(drop)
    nxt = queue.pop()
    assert nxt is keep
    nxt.callback()
    assert seen == ["keep"]
    assert queue.pop() is None


def test_peek_does_not_remove():
    queue = EventQueue()
    queue.push(1.0, lambda: None, label="x")
    assert queue.peek() is queue.peek()
    assert len(queue) == 1


def test_clear_empties_queue():
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.clear()
    assert len(queue) == 0
    assert queue.pop() is None


def test_iteration_skips_cancelled():
    queue = EventQueue()
    e1 = queue.push(1.0, lambda: None, label="a")
    queue.push(2.0, lambda: None, label="b")
    queue.cancel(e1)
    labels = {event.label for event in queue}
    assert labels == {"b"}


def test_cancelling_a_fired_event_is_a_no_op():
    """A late cancel must not make ``len`` under-count (or go negative)."""
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert queue.pop() is first
    queue.cancel(first)
    queue.cancel(first)
    assert not queue.is_cancelled(first)
    assert len(queue) == 1
    assert bool(queue)
    assert queue.pop() is not None
    assert len(queue) == 0 and not queue


def test_cancelling_twice_or_after_clear_counts_once():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 1
    queue.clear()
    queue.cancel(event)
    survivor = queue.push(3.0, lambda: None)
    assert len(queue) == 1
    assert queue.pop() is survivor


#: one step of a queue script: push (time, priority) / cancel the k-th pushed
#: event (fired, cancelled or pending) / pop
_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
            st.integers(min_value=-2, max_value=2),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=60)),
        st.tuples(st.just("pop")),
    ),
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(steps=_steps)
def test_pops_follow_time_priority_insertion_order_under_cancels(steps):
    """Against a sorted-list model: every pop returns the pending event with
    the smallest ``(time, priority, insertion)`` key and ``len`` always
    equals the number of events that can still be popped."""
    queue = EventQueue()
    pushed = []
    pending = {}  # insertion index -> (time, priority, insertion)
    for step in steps:
        if step[0] == "push":
            _, time, priority = step
            event = queue.push(time, lambda: None, priority=priority)
            assert event.sequence == len(pushed)
            pending[len(pushed)] = (time, priority, len(pushed))
            pushed.append(event)
        elif step[0] == "cancel":
            if pushed:
                index = step[1] % len(pushed)
                was_pending = index in pending
                was_cancelled = queue.is_cancelled(pushed[index])
                queue.cancel(pushed[index])
                assert queue.is_cancelled(pushed[index]) == (was_pending or was_cancelled)
                pending.pop(index, None)
        else:
            event = queue.pop()
            if not pending:
                assert event is None
            else:
                expected = min(pending.values())
                assert (event.time, event.priority, event.sequence) == expected
                assert event is pushed[expected[2]]
                del pending[expected[2]]
        assert len(queue) == len(pending)
        assert bool(queue) == bool(pending)
        assert {event.sequence for event in queue} == set(pending)
        head = queue.peek()
        assert (head is None) == (not pending)
    drained = []
    while queue:
        drained.append(queue.pop().sequence)
    assert drained == [key[2] for key in sorted(pending.values())]
