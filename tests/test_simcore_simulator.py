"""Unit tests for the simulation driver."""

import pytest

from repro.simcore import Simulator


class TestScheduling:
    def test_runs_events_in_order(self, simulator):
        log = []
        simulator.schedule(2.0, lambda: log.append("b"))
        simulator.schedule(1.0, lambda: log.append("a"))
        simulator.schedule(3.0, lambda: log.append("c"))
        simulator.run()
        assert log == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, simulator):
        seen = []
        simulator.schedule(5.0, lambda: seen.append(simulator.now))
        simulator.run()
        assert seen == [5.0]
        assert simulator.now == 5.0

    def test_schedule_after(self, simulator):
        seen = []
        simulator.schedule(1.0, lambda: simulator.schedule_after(
            2.5, lambda: seen.append(simulator.now)))
        simulator.run()
        assert seen == [3.5]

    def test_schedule_in_past_raises(self, simulator):
        simulator.schedule(1.0, lambda: None)
        simulator.run()
        with pytest.raises(ValueError):
            simulator.schedule(0.5, lambda: None)

    def test_negative_delay_raises(self, simulator):
        with pytest.raises(ValueError):
            simulator.schedule_after(-1.0, lambda: None)

    def test_events_scheduled_during_run_are_processed(self, simulator):
        log = []

        def chain(n):
            log.append(n)
            if n < 4:
                simulator.schedule_after(1.0, lambda: chain(n + 1))

        simulator.schedule(0.0, lambda: chain(0))
        simulator.run()
        assert log == [0, 1, 2, 3, 4]
        assert simulator.now == 4.0


class TestRunLimits:
    def test_until_stops_before_later_events(self, simulator):
        log = []
        simulator.schedule(1.0, lambda: log.append(1))
        simulator.schedule(10.0, lambda: log.append(10))
        simulator.run(until=5.0)
        assert log == [1]
        assert simulator.now == 5.0
        # Remaining event still fires on a later run.
        simulator.run()
        assert log == [1, 10]

    def test_until_advances_clock_with_no_events(self, simulator):
        simulator.run(until=7.0)
        assert simulator.now == 7.0

    def test_max_events(self, simulator):
        log = []
        for i in range(5):
            simulator.schedule(float(i), lambda i=i: log.append(i))
        simulator.run(max_events=3)
        assert log == [0, 1, 2]

    def test_events_processed_counter(self, simulator):
        for i in range(4):
            simulator.schedule(float(i), lambda: None)
        simulator.run()
        assert simulator.events_processed == 4

    def test_pending_events(self, simulator):
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        assert simulator.pending_events == 2
        simulator.run()
        assert simulator.pending_events == 0


class TestOrderingEdgeCases:
    def test_same_timestamp_priority_ordering(self, simulator):
        log = []
        simulator.schedule(1.0, lambda: log.append("late"), priority=5)
        simulator.schedule(1.0, lambda: log.append("early"), priority=-1)
        simulator.schedule(1.0, lambda: log.append("mid"))
        simulator.run()
        assert log == ["early", "mid", "late"]

    def test_same_time_same_priority_is_fifo(self, simulator):
        log = []
        for i in range(6):
            simulator.schedule(2.0, lambda i=i: log.append(i))
        simulator.run()
        assert log == list(range(6))

    def test_priority_does_not_trump_time(self, simulator):
        log = []
        simulator.schedule(2.0, lambda: log.append("t2"), priority=-100)
        simulator.schedule(1.0, lambda: log.append("t1"), priority=100)
        simulator.run()
        assert log == ["t1", "t2"]

    def test_max_events_cutoff_then_resume(self, simulator):
        log = []
        for i in range(5):
            simulator.schedule(float(i), lambda i=i: log.append(i))
        simulator.run(max_events=2)
        assert log == [0, 1]
        assert simulator.now == 1.0
        assert simulator.pending_events == 3
        # A later run picks up exactly where the cutoff left off.
        simulator.run()
        assert log == [0, 1, 2, 3, 4]
        assert simulator.events_processed == 5

    def test_schedule_at_exactly_now_is_allowed(self, simulator):
        simulator.schedule(2.0, lambda: None)
        simulator.run()
        fired = []
        simulator.schedule(2.0, lambda: fired.append(simulator.now))
        simulator.run()
        assert fired == [2.0]

    def test_schedule_in_past_during_run_raises(self, simulator):
        def try_rewind():
            simulator.schedule(1.0, lambda: None)

        simulator.schedule(2.0, try_rewind)
        with pytest.raises(ValueError, match="in the past"):
            simulator.run()

    def test_nan_time_raises(self, simulator):
        with pytest.raises(ValueError, match="NaN"):
            simulator.schedule(float("nan"), lambda: None)

    def test_cancelled_event_is_skipped(self, simulator):
        log = []
        handle = simulator.schedule(1.0, lambda: log.append("cancelled"))
        simulator.schedule(2.0, lambda: log.append("kept"))
        handle.cancel()
        simulator.run()
        assert log == ["kept"]
        assert simulator.events_processed == 1


class TestDeterminism:
    def test_same_schedule_same_order(self):
        def run_once():
            sim = Simulator()
            log = []
            for i in range(20):
                sim.schedule(float(i % 3), lambda i=i: log.append(i))
            sim.run()
            return log

        assert run_once() == run_once()
