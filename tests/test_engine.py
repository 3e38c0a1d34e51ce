"""Unit tests for the event engine: events, clocks, simulator."""

import pytest

from repro.engine.clock import TICKS_PER_SECOND, ClockDomain
from repro.engine.event import Event, EventQueue
from repro.engine.simulator import SimulationLimitError, Simulator


class TestEvent:
    def test_negative_tick_rejected(self):
        with pytest.raises(ValueError):
            Event(-1, lambda: None)

    def test_cancel(self):
        event = Event(5, lambda: None)
        event.cancel()
        assert event.cancelled


class TestEventQueue:
    def test_fires_in_tick_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule_at(30, lambda: fired.append(30))
        queue.schedule_at(10, lambda: fired.append(10))
        queue.schedule_at(20, lambda: fired.append(20))
        while queue:
            queue.pop().callback()
        assert fired == [10, 20, 30]

    def test_same_tick_fires_in_schedule_order(self):
        queue = EventQueue()
        fired = []
        for label in range(5):
            queue.schedule_at(7, lambda label=label: fired.append(label))
        while queue:
            queue.pop().callback()
        assert fired == [0, 1, 2, 3, 4]

    def test_pop_advances_clock(self):
        queue = EventQueue()
        queue.schedule_at(42, lambda: None)
        queue.pop()
        assert queue.current_tick == 42

    def test_cannot_schedule_in_past(self):
        queue = EventQueue()
        queue.schedule_at(10, lambda: None)
        queue.pop()
        with pytest.raises(ValueError):
            queue.schedule_at(5, lambda: None)

    def test_schedule_after(self):
        queue = EventQueue()
        queue.schedule_at(10, lambda: None)
        queue.pop()
        event = queue.schedule_after(7, lambda: None)
        assert event.tick == 17

    def test_negative_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule_after(-1, lambda: None)

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        fired = []
        victim = queue.schedule_at(5, lambda: fired.append("victim"))
        queue.schedule_at(6, lambda: fired.append("survivor"))
        victim.cancel()
        while queue:
            queue.pop().callback()
        assert fired == ["survivor"]

    def test_len_excludes_cancelled(self):
        queue = EventQueue()
        event = queue.schedule_at(1, lambda: None)
        queue.schedule_at(2, lambda: None)
        event.cancel()
        assert len(queue) == 1

    def test_peek_tick(self):
        queue = EventQueue()
        assert queue.peek_tick() is None
        queue.schedule_at(9, lambda: None)
        assert queue.peek_tick() == 9


class TestClockDomain:
    def test_period(self):
        clock = ClockDomain("mem", 1e9)  # 1 GHz -> 1000 ps
        assert clock.period_ticks == 1000

    def test_cycles_to_ticks(self):
        clock = ClockDomain("mem", 1e9)
        assert clock.cycles_to_ticks(14) == 14_000

    def test_ticks_to_cycles_floor(self):
        clock = ClockDomain("mem", 1e9)
        assert clock.ticks_to_cycles(1999) == 1

    def test_next_edge(self):
        clock = ClockDomain("mem", 1e9)
        assert clock.next_edge(0) == 0
        assert clock.next_edge(1) == 1000
        assert clock.next_edge(1000) == 1000

    def test_gpu_clock_period(self):
        clock = ClockDomain("gpu", 1.4e9)
        assert clock.period_ticks == round(TICKS_PER_SECOND / 1.4e9)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            ClockDomain("bad", 0)

    def test_negative_cycles_rejected(self):
        clock = ClockDomain("c", 1e9)
        with pytest.raises(ValueError):
            clock.cycles_to_ticks(-1)


class TestSimulator:
    def test_runs_to_completion(self):
        sim = Simulator()
        fired = []
        sim.queue.schedule_at(10, lambda: fired.append(1))
        final = sim.run()
        assert fired == [1]
        assert final == 10

    def test_chained_events(self):
        sim = Simulator()
        ticks = []

        def chain(depth):
            ticks.append(sim.now)
            if depth:
                sim.queue.schedule_after(5, lambda: chain(depth - 1))

        sim.queue.schedule_at(0, lambda: chain(3))
        sim.run()
        assert ticks == [0, 5, 10, 15]

    def test_event_budget_trips(self):
        sim = Simulator(max_events=10)

        def forever():
            sim.queue.schedule_after(1, forever)

        sim.queue.schedule_at(0, forever)
        with pytest.raises(SimulationLimitError):
            sim.run()

    def test_tick_budget_trips(self):
        sim = Simulator(max_ticks=100)
        sim.queue.schedule_at(101, lambda: None)
        with pytest.raises(SimulationLimitError):
            sim.run()


class TestEventQueueLiveCount:
    """The queue keeps an O(1) live count and compacts dead entries."""

    def test_len_is_tracked_not_scanned(self):
        queue = EventQueue()
        events = [queue.schedule_at(i, lambda: None) for i in range(10)]
        assert len(queue) == 10
        for event in events[:4]:
            event.cancel()
        assert len(queue) == 6

    def test_double_cancel_counted_once(self):
        queue = EventQueue()
        event = queue.schedule_at(1, lambda: None)
        queue.schedule_at(2, lambda: None)
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_cancel_after_fire_does_not_skew_count(self):
        queue = EventQueue()
        event = queue.schedule_at(1, lambda: None)
        queue.schedule_at(2, lambda: None)
        fired = queue.pop()
        assert fired is event
        event.cancel()  # too late; must not affect the remaining count
        assert len(queue) == 1
        assert bool(queue)

    def test_bool_reflects_live_events(self):
        queue = EventQueue()
        event = queue.schedule_at(1, lambda: None)
        assert queue
        event.cancel()
        assert not queue

    def test_heap_compacts_when_dead_dominate(self):
        queue = EventQueue()
        survivors = [queue.schedule_at(1, lambda: None) for _ in range(5)]
        doomed = [queue.schedule_at(2, lambda: None) for _ in range(200)]
        for event in doomed:
            event.cancel()
        # cancelled entries outnumber live ones well past the threshold:
        # the heap must have shed them instead of waiting for pop
        assert len(queue._heap) < 100
        assert len(queue) == len(survivors)
        popped = 0
        while queue.pop() is not None:
            popped += 1
        assert popped == len(survivors)

    def test_compaction_preserves_order(self):
        queue = EventQueue()
        fired = []
        for i in range(100):
            event = queue.schedule_at(
                i, (lambda n: lambda: fired.append(n))(i))
            if i % 2 == 0:
                event.cancel()
        while queue:
            queue.pop().callback()
        assert fired == list(range(1, 100, 2))

    def test_scheduling_precancelled_event_raises(self):
        # events are single-use: pushing a cancelled one is a caller bug
        queue = EventQueue()
        event = Event(5, lambda: None)
        event.cancel()
        with pytest.raises(ValueError, match="cancelled"):
            queue.schedule(event)
        assert len(queue) == 0
        assert queue.pop() is None
