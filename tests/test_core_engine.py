"""Unit tests for the DES kernel (repro.core.engine / events)."""

import pytest

from repro.core.engine import Engine
from repro.core.events import Event, Priority


class TestScheduling:
    def test_runs_in_time_order(self):
        e = Engine()
        order = []
        e.schedule(5.0, order.append, "b")
        e.schedule(1.0, order.append, "a")
        e.schedule(9.0, order.append, "c")
        e.run()
        assert order == ["a", "b", "c"]
        assert e.now == 9.0

    def test_priority_breaks_ties(self):
        e = Engine()
        order = []
        e.schedule(1.0, order.append, "arrival", priority=Priority.ARRIVAL)
        e.schedule(1.0, order.append, "departure", priority=Priority.DEPARTURE)
        e.schedule(1.0, order.append, "network", priority=Priority.NETWORK)
        e.run()
        assert order == ["network", "departure", "arrival"]

    def test_seq_breaks_remaining_ties(self):
        e = Engine()
        order = []
        for i in range(5):
            e.schedule(2.0, order.append, i, priority=Priority.STATS)
        e.run()
        assert order == [0, 1, 2, 3, 4]

    def test_schedule_at(self):
        e = Engine()
        seen = []
        e.schedule_at(4.5, seen.append, True)
        e.run()
        assert seen == [True] and e.now == 4.5

    def test_past_scheduling_rejected(self):
        e = Engine()
        e.schedule(1.0, lambda: None)
        e.run()
        with pytest.raises(ValueError, match="past"):
            e.schedule_at(0.5, lambda: None)
        with pytest.raises(ValueError):
            e.schedule(-1.0, lambda: None)

    def test_schedule_returns_the_queued_event(self):
        e = Engine()
        e.schedule(2.0, lambda: None)
        e.run()
        ev = e.schedule(1.5, print, "x", priority=Priority.ARRIVAL)
        assert ev.time == 3.5
        assert ev.priority == int(Priority.ARRIVAL)
        assert ev.args == ("x",)

    def test_zero_delay_runs_at_current_time_after_caller(self):
        e = Engine()
        order = []

        def first():
            order.append(("first", e.now))
            e.schedule(0.0, lambda: order.append(("follow", e.now)))

        e.schedule(3.0, first)
        e.run()
        assert order == [("first", 3.0), ("follow", 3.0)]

    def test_callbacks_can_schedule(self):
        e = Engine()
        hits = []

        def chain(n):
            hits.append(n)
            if n < 3:
                e.schedule(1.0, chain, n + 1)

        e.schedule(0.0, chain, 0)
        e.run()
        assert hits == [0, 1, 2, 3]
        assert e.now == 3.0


class TestRunControl:
    def test_until_stops_clock(self):
        e = Engine()
        seen = []
        e.schedule(1.0, seen.append, 1)
        e.schedule(10.0, seen.append, 2)
        e.run(until=5.0)
        assert seen == [1]
        assert e.now == 5.0
        e.run()  # drains the rest
        assert seen == [1, 2]

    def test_stop_predicate(self):
        e = Engine()
        seen = []
        for i in range(10):
            e.schedule(float(i + 1), seen.append, i)
        e.run(stop=lambda: len(seen) >= 4)
        assert len(seen) == 4

    def test_stop_predicate_does_not_clamp_to_until(self):
        e = Engine()
        seen = []
        for i in range(5):
            e.schedule(float(i + 1), seen.append, i)
        e.run(until=10.0, stop=lambda: len(seen) >= 2)
        assert e.now == 2.0
        e.run(until=10.0)  # resume drains the rest, then clamps
        assert len(seen) == 5
        assert e.now == 10.0

    def test_until_clamps_when_heap_drains(self):
        e = Engine()
        e.schedule(1.0, lambda: None)
        e.run(until=5.0)
        assert e.processed == 1
        assert e.now == 5.0

    def test_empty_run_with_until_advances_clock(self):
        e = Engine()
        e.run(until=7.0)
        assert e.now == 7.0

    def test_event_exactly_at_until_runs(self):
        e = Engine()
        seen = []
        e.schedule(5.0, seen.append, "at")
        e.schedule(5.5, seen.append, "after")
        e.run(until=5.0)
        assert seen == ["at"]
        assert e.now == 5.0

    def test_processed_counts_only_executed_events(self):
        e = Engine()
        for t in (1.0, 2.0, 3.0, 8.0):
            e.schedule(t, lambda: None)
        e.run(until=4.0)
        assert e.processed == 3
        e.run()
        assert e.processed == 4


class TestEventOrdering:
    def test_event_dataclass_ordering(self):
        a = Event(1.0, 0, 1, lambda: None)
        b = Event(1.0, 0, 2, lambda: None)
        c = Event(1.0, 1, 0, lambda: None)
        d = Event(0.5, 9, 9, lambda: None)
        assert a < b < c
        assert d < a
