"""Unit tests for the event engine: event queue, clocks, simulator."""

import pytest

from repro.engine.clock import TICKS_PER_SECOND, ClockDomain
from repro.engine.event import EventQueue
from repro.engine.simulator import SimulationLimitError, Simulator


class TestEvent:
    def test_negative_tick_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().post_at(-1, lambda: None)


class TestEventQueue:
    def test_fires_in_tick_order(self):
        queue = EventQueue()
        fired = []
        queue.post_at(30, lambda: fired.append(30))
        queue.post_at(10, lambda: fired.append(10))
        queue.post_at(20, lambda: fired.append(20))
        while queue:
            queue.pop_entry()[2]()
        assert fired == [10, 20, 30]

    def test_same_tick_fires_in_schedule_order(self):
        queue = EventQueue()
        fired = []
        for label in range(5):
            queue.post_at(7, lambda label=label: fired.append(label))
        while queue:
            queue.pop_entry()[2]()
        assert fired == [0, 1, 2, 3, 4]

    def test_pop_advances_clock(self):
        queue = EventQueue()
        queue.post_at(42, lambda: None)
        queue.pop_entry()
        assert queue.current_tick == 42

    def test_cannot_schedule_in_past(self):
        queue = EventQueue()
        queue.post_at(10, lambda: None)
        queue.pop_entry()
        with pytest.raises(ValueError):
            queue.post_at(5, lambda: None)

    def test_schedule_after(self):
        queue = EventQueue()
        queue.post_at(10, lambda: None)
        queue.pop_entry()
        queue.post_after(7, lambda: None)
        assert queue.peek_tick() == 17

    def test_negative_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.post_after(-1, lambda: None)

    def test_peek_tick(self):
        queue = EventQueue()
        assert queue.peek_tick() is None
        queue.post_at(9, lambda: None)
        assert queue.peek_tick() == 9


class TestClockDomain:
    def test_period(self):
        clock = ClockDomain("mem", 1e9)  # 1 GHz -> 1000 ps
        assert clock.period_ticks == 1000

    def test_cycles_to_ticks(self):
        clock = ClockDomain("mem", 1e9)
        assert clock.cycles_to_ticks(14) == 14_000

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
        sim.queue.post_at(10, lambda: fired.append(1))
        final = sim.run()
        assert fired == [1]
        assert final == 10

    def test_chained_events(self):
        sim = Simulator()
        ticks = []

        def chain(depth):
            ticks.append(sim.now)
            if depth:
                sim.queue.post_after(5, lambda: chain(depth - 1))

        sim.queue.post_at(0, lambda: chain(3))
        sim.run()
        assert ticks == [0, 5, 10, 15]

    def test_event_budget_trips(self):
        sim = Simulator(max_events=10)

        def forever():
            sim.queue.post_after(1, forever)

        sim.queue.post_at(0, forever)
        with pytest.raises(SimulationLimitError):
            sim.run()


class TestEventQueueLiveCount:
    """``len`` and truthiness count the entries still queued."""

    def test_len_is_tracked_not_scanned(self):
        queue = EventQueue()
        for tick in range(10):
            queue.post_at(tick, lambda: None)
        assert len(queue) == 10
        for _ in range(4):
            queue.pop_entry()
        assert len(queue) == 6

    def test_bool_reflects_live_events(self):
        queue = EventQueue()
        queue.post_at(1, lambda: None)
        assert queue
        queue.pop_entry()
        assert not queue
        assert queue.pop_entry() is None
