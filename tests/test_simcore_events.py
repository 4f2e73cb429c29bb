"""Unit tests for the event queue primitives."""

import pytest

from repro.simcore.events import Event, EventQueue


class TestEventOrdering:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(2.0, lambda: None)
        q.push(1.0, lambda: None)
        q.push(3.0, lambda: None)
        times = [q.pop().time for _ in range(3)]
        assert times == [1.0, 2.0, 3.0]

    def test_ties_broken_by_priority(self):
        q = EventQueue()
        q.push(1.0, lambda: None, priority=5)
        q.push(1.0, lambda: None, priority=1)
        assert q.pop().priority == 1
        assert q.pop().priority == 5

    def test_ties_broken_by_insertion_order(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        second = q.push(1.0, lambda: None)
        assert q.pop() is first
        assert q.pop() is second

    def test_sequence_numbers_strictly_increase(self):
        q = EventQueue()
        events = [q.push(0.0, lambda: None) for _ in range(10)]
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 10


class TestEventQueueBehaviour:
    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        assert len(q) == 0
        q.push(1.0, lambda: None)
        assert q
        assert len(q) == 1

    def test_pop_empty_raises(self):
        q = EventQueue()
        with pytest.raises(IndexError):
            q.pop()

    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        second = q.push(2.0, lambda: None)
        first.cancel()
        assert q.pop() is second

    def test_pop_all_cancelled_raises(self):
        q = EventQueue()
        q.push(1.0, lambda: None).cancel()
        with pytest.raises(IndexError):
            q.pop()

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        first.cancel()
        assert q.peek_time() == 2.0

    def test_peek_time_empty_is_none(self):
        assert EventQueue().peek_time() is None

    def test_nan_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(float("nan"), lambda: None)

    def test_event_dataclass_comparison(self):
        a = Event(time=1.0, priority=0, seq=0)
        b = Event(time=1.0, priority=0, seq=1)
        assert a < b


class TestCancellationSemantics:
    """The lazy-deletion contract the fault layer's watchdogs rely on:
    a cancelled event never fires and never stretches the clock."""

    def test_cancelled_event_never_fires(self):
        from repro.simcore import Simulator

        sim = Simulator()
        fired = []
        handle = sim.schedule(5.0, lambda: fired.append("watchdog"))
        sim.schedule(1.0, lambda: fired.append("work"))
        handle.cancel()
        sim.run()
        assert fired == ["work"]
        # The drain clock stops at the last *live* event, not at the
        # cancelled one's timestamp.
        assert sim.now == 1.0

    def test_cancel_from_earlier_callback(self):
        """Cancelling inside a callback that fires before the target —
        exactly how a completion disarms its deadline watchdog."""
        from repro.simcore import Simulator

        sim = Simulator()
        fired = []
        watchdog = sim.schedule(10.0, lambda: fired.append("abandon"))
        sim.schedule(2.0, lambda: watchdog.cancel())
        sim.run()
        assert fired == []
        assert sim.now == 2.0

    def test_double_cancel_is_idempotent(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        live = q.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled
        assert q.pop() is live

    def test_heap_stays_consistent_after_cancel(self):
        """Cancellation must not reorder or lose the surviving events,
        and lazily-removed entries drop out of the length count."""
        q = EventQueue()
        events = [q.push(float(t), lambda: None) for t in range(10)]
        for e in events[::2]:  # cancel the even-timestamp half
            e.cancel()
        assert len(q) == 10  # lazy: cancelled entries still on heap
        survivors = []
        while q:
            try:
                survivors.append(q.pop().time)
            except IndexError:
                break
        assert survivors == [1.0, 3.0, 5.0, 7.0, 9.0]

    def test_peek_time_prunes_cancelled_prefix(self):
        q = EventQueue()
        doomed = [q.push(float(t), lambda: None) for t in range(5)]
        keeper = q.push(99.0, lambda: None)
        for e in doomed:
            e.cancel()
        assert q.peek_time() == 99.0
        # peek_time popped the cancelled prefix off the heap for real.
        assert len(q) == 1
        assert q.pop() is keeper


class TestTupleHeapEntries:
    """The heap orders ``(time, priority, seq, event)`` tuples; the
    event handle only carries the action and the cancel flag."""

    def test_equal_time_fires_in_priority_then_seq_order(self):
        q = EventQueue()
        pushed = [
            q.push(1.0, lambda: None, priority=p) for p in (2, 0, 1, 0, 2)
        ]
        popped = [q.pop() for _ in pushed]
        assert [(e.priority, e.seq) for e in popped] == sorted(
            (e.priority, e.seq) for e in pushed
        )
        assert popped == sorted(pushed)

    def test_cancelled_head_skipped_by_peek_and_pop(self):
        q = EventQueue()
        head = q.push(1.0, lambda: None)
        tie = q.push(1.0, lambda: None, priority=1)
        later = q.push(2.0, lambda: None)
        head.cancel()
        assert q.peek_time() == 1.0
        assert q.pop() is tie
        later.cancel()
        assert q.peek_time() is None
        with pytest.raises(IndexError):
            q.pop()

    def test_cancel_after_firing_is_harmless(self):
        from repro.simcore import Simulator

        sim = Simulator()
        fired = []
        done = sim.schedule(1.0, lambda: fired.append("first"))
        sim.run()
        done.cancel()
        sim.schedule(2.0, lambda: fired.append("second"))
        assert sim.next_event_time() == 2.0
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0

    def test_fast_forward_refuses_to_pass_a_live_event(self):
        from repro.simcore import Simulator

        sim = Simulator()
        doomed = sim.schedule(1.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        doomed.cancel()
        sim.fast_forward(2.0)  # only a cancelled event lies before 2.0
        assert sim.now == 2.0
        sim.fast_forward(3.0)  # landing on the live event is allowed
        with pytest.raises(ValueError, match="pending event"):
            sim.fast_forward(3.5)
        assert sim.now == 3.0
