"""Event-queue and run-loop tests.

Two kinds of coverage for the event queue and its two drain loops:

* fixed-seed property-style tests driving :class:`EventQueue` through
  random interleavings of ``post_at`` / ``post_after`` against a naive
  sorted-list reference model, including callbacks that post work at
  the current tick;
* plain vs sampled run-loop equivalence, including callbacks that
  post same-tick work, and the event-budget trip point.
"""

import itertools
import random

import pytest

from repro.engine.event import EventQueue
from repro.engine.simulator import SimulationLimitError, Simulator
from repro.telemetry.sampler import IntervalSampler, Probe


def test_past_tick_schedule_raises():
    queue = EventQueue()
    queue.post_at(10, lambda: None)
    queue.pop_entry()
    assert queue.current_tick == 10
    with pytest.raises(ValueError, match="past"):
        queue.post_at(9, lambda: None)
    with pytest.raises(ValueError, match="negative delay"):
        queue.post_after(-1, lambda: None)


# ----------------------------------------------------------------------
# property-style: random interleavings vs a naive reference model
# ----------------------------------------------------------------------


class NaiveQueue:
    """Reference model: a plain list sorted at drain time.

    Every insert consumes one sequence number, exactly like the real
    queue, so the expected fire order is ``sorted by (tick, seq)``.
    """

    def __init__(self):
        self.cells = []
        self._seq = itertools.count()

    def add(self, tick, label):
        self.cells.append((tick, next(self._seq), label))

    def fire_order(self):
        return [label for _tick, _seq, label in sorted(self.cells)]


def _drain_per_event(queue):
    """The Simulator._run dispatch shape, minus the budget."""
    while True:
        entry = queue.pop_entry()
        if entry is None:
            return
        entry[2]()


def _drain_sampled(queue):
    """The Simulator._run_sampled dispatch shape, minus the budget."""
    while queue.peek_tick() is not None:
        queue.pop_entry()[2]()


@pytest.mark.parametrize("drain", [_drain_per_event, _drain_sampled],
                         ids=["per-event", "sampled"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_interleaving_matches_reference(drain, seed):
    rng = random.Random(seed)
    queue = EventQueue()
    reference = NaiveQueue()
    fired = []

    def post_now(label):
        # a callback posting at the current tick: its entry draws the
        # next sequence number, so it fires after everything queued
        def callback():
            fired.append(label)
            child = f"{label}+"
            queue.post_after(0, lambda: fired.append(child))
            reference.add(queue.current_tick, child)
        return callback

    for step in range(600):
        roll = rng.random()
        tick = rng.randrange(0, 40)
        if roll < 0.45:
            label = f"p{step}"
            queue.post_at(tick, lambda label=label: fired.append(label))
        elif roll < 0.75:
            label = f"d{step}"
            queue.post_after(tick, lambda label=label: fired.append(label))
        else:
            label = f"n{step}"
            queue.post_at(tick, post_now(label))
        reference.add(tick, label)  # current_tick is 0 pre-drain

    drain(queue)
    assert fired == reference.fire_order()
    assert len(queue) == 0
    assert queue.pop_entry() is None


# ----------------------------------------------------------------------
# plain vs sampled run-loop equivalence
# ----------------------------------------------------------------------


def _dynamic_workload(queue, seed, spawn_budget=300):
    """Callbacks that post same-tick and later work.

    The rng stream is consumed in fire order, so any ordering divergence
    between two drain loops derails the logs immediately.
    """
    rng = random.Random(seed)
    log = []
    counter = itertools.count()
    budget = [spawn_budget]

    def make(label):
        def callback():
            log.append((queue.current_tick, label))
            roll = rng.random()
            if roll < 0.45 and budget[0] > 0:
                budget[0] -= 1
                name = f"s{next(counter)}"
                offset = rng.choice([0, 0, 1, 2, 5])
                queue.post_at(queue.current_tick + offset, make(name))
            elif roll < 0.60 and budget[0] > 0:
                budget[0] -= 1
                name = f"a{next(counter)}"
                queue.post_after(rng.choice([0, 1, 3]), make(name))
        return callback

    for i in range(8):
        queue.post_at(i % 3, make(f"root{i}"))
    return log


def _sampled_simulator(**budgets):
    """A Simulator that drains through its sampled loop."""
    sim = Simulator(**budgets)
    sim.sampler = IntervalSampler(
        2, [Probe("tick", lambda: sim.queue.current_tick, "gauge")])
    return sim


LOOPS = [("plain", Simulator), ("sampled", _sampled_simulator)]


@pytest.mark.parametrize("seed", [7, 11, 13])
def test_sampled_loop_matches_plain_loop(seed):
    plain = Simulator()
    plain_log = _dynamic_workload(plain.queue, seed)
    plain.run()

    sampled = _sampled_simulator()
    sampled_log = _dynamic_workload(sampled.queue, seed)
    sampled.run()

    assert plain_log == sampled_log
    assert plain.now == sampled.now
    assert plain.events_fired == sampled.events_fired
    assert sampled.sampler.to_timeseries().ticks


def _budget_workload(queue):
    """A chain of 20 one-per-tick events."""
    fired = []

    def step(i):
        fired.append(i)
        if i < 19:
            queue.post_after(1, lambda: step(i + 1))

    queue.post_at(0, lambda: step(0))
    return fired


def test_event_budget_trips_identically_across_modes():
    # the budget trips on the 8th pop, before its callback runs
    for label, build in LOOPS:
        sim = build(max_events=7)
        fired = _budget_workload(sim.queue)
        with pytest.raises(SimulationLimitError, match="event budget"):
            sim.run()
        assert fired == list(range(7)), label
        assert sim.events_fired == 8, label
        assert sim.now == 7, label
