"""Event-lifecycle and run-loop tests.

Three kinds of coverage for the event queue and its two drain loops:

* the :class:`Event` single-use contract (schedule → cancel →
  re-schedule must raise, not corrupt the queue's accounting);
* fixed-seed property-style tests driving :class:`EventQueue` through
  random interleavings of schedule / post / cancel / compaction against
  a naive sorted-list reference model;
* plain vs sampled run-loop equivalence, including callbacks that
  schedule same-tick work and cancel same-tick later events, and the
  event- and tick-budget trip points.
"""

import itertools
import random

import pytest

from repro.engine.event import Event, EventQueue
from repro.engine.simulator import SimulationLimitError, Simulator
from repro.telemetry.sampler import IntervalSampler, Probe

QUEUE_CLASSES = [EventQueue]
QUEUE_IDS = ["python-heap"]


# ----------------------------------------------------------------------
# the Event lifecycle contract
# ----------------------------------------------------------------------


@pytest.mark.parametrize("queue_class", QUEUE_CLASSES, ids=QUEUE_IDS)
class TestEventContract:
    def test_rescheduling_a_fired_event_raises(self, queue_class):
        queue = queue_class()
        event = queue.schedule_at(5, lambda: None)
        assert queue.pop_entry() is not None
        assert event.fired
        with pytest.raises(ValueError, match="fired"):
            queue.schedule(event)

    def test_scheduling_a_cancelled_event_raises(self, queue_class):
        queue = queue_class()
        event = Event(5, lambda: None)
        event.cancel()
        with pytest.raises(ValueError, match="cancelled"):
            queue.schedule(event)

    def test_rescheduling_a_queued_event_raises(self, queue_class):
        queue = queue_class()
        event = queue.schedule_at(5, lambda: None)
        with pytest.raises(ValueError, match="already scheduled"):
            queue.schedule(event)

    def test_rescheduling_a_cancelled_queued_event_raises(self, queue_class):
        # the regression that motivated the contract: schedule → cancel →
        # schedule again used to corrupt the live/dead accounting
        queue = queue_class()
        event = queue.schedule_at(5, lambda: None)
        event.cancel()
        with pytest.raises(ValueError):
            queue.schedule(event)
        assert len(queue) == 0
        assert queue.pop_entry() is None

    def test_cancel_then_fresh_event_is_the_supported_reschedule(
            self, queue_class):
        queue = queue_class()
        fired = []
        first = queue.schedule_at(5, lambda: fired.append("old"))
        first.cancel()
        queue.schedule_at(3, lambda: fired.append("new"))
        while queue.pop_entry() is not None:
            pass
        assert queue.current_tick == 3

    def test_cancel_after_fire_is_a_silent_noop(self, queue_class):
        queue = queue_class()
        event = queue.schedule_at(5, lambda: None)
        queue.pop_entry()
        event.cancel()  # must not raise or skew the live count
        assert len(queue) == 0

    def test_past_tick_schedule_raises(self, queue_class):
        queue = queue_class()
        queue.post_at(10, lambda: None)
        queue.pop_entry()
        assert queue.current_tick == 10
        with pytest.raises(ValueError, match="past"):
            queue.schedule_at(9, lambda: None)
        with pytest.raises(ValueError, match="past"):
            queue.post_at(9, lambda: None)
        with pytest.raises(ValueError, match="negative delay"):
            queue.post_after(-1, lambda: None)


# ----------------------------------------------------------------------
# property-style: random interleavings vs a naive reference model
# ----------------------------------------------------------------------


class NaiveQueue:
    """Reference model: a plain list sorted at drain time.

    Mirrors the queue API surface the property test uses; every insert
    consumes one sequence number, exactly like the real queues, so the
    expected fire order is ``sorted by (tick, seq)`` minus cancellations.
    """

    def __init__(self):
        self.cells = []
        self._seq = itertools.count()

    def add(self, tick, label):
        cell = {"tick": tick, "seq": next(self._seq), "label": label,
                "cancelled": False}
        self.cells.append(cell)
        return cell

    def fire_order(self):
        live = [cell for cell in self.cells if not cell["cancelled"]]
        live.sort(key=lambda cell: (cell["tick"], cell["seq"]))
        return [cell["label"] for cell in live]


def _drain_per_event(queue):
    """The Simulator._run dispatch shape, minus budgets."""
    while True:
        entry = queue.pop_entry()
        if entry is None:
            return
        entry[3]()


def _drain_sampled(queue):
    """The Simulator._run_sampled dispatch shape, minus budgets."""
    while queue.peek_tick() is not None:
        queue.pop_entry()[3]()


@pytest.mark.parametrize("queue_class", QUEUE_CLASSES, ids=QUEUE_IDS)
@pytest.mark.parametrize("drain", [_drain_per_event, _drain_sampled],
                         ids=["per-event", "sampled"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_interleaving_matches_reference(queue_class, drain, seed):
    rng = random.Random(seed)
    queue = queue_class()
    reference = NaiveQueue()
    fired = []
    handles = []  # (event, reference_cell) pairs still cancellable

    for step in range(600):
        roll = rng.random()
        if roll < 0.35:
            tick = rng.randrange(0, 40)
            label = f"e{step}"
            event = queue.schedule_at(
                tick, lambda label=label: fired.append(label), name=label)
            handles.append((event, reference.add(tick, label)))
        elif roll < 0.60:
            tick = rng.randrange(0, 40)
            label = f"p{step}"
            queue.post_at(tick, lambda label=label: fired.append(label))
            reference.add(tick, label)
        elif roll < 0.70:
            delay = rng.randrange(0, 40)
            label = f"d{step}"
            queue.post_after(delay, lambda label=label: fired.append(label))
            reference.add(delay, label)  # current_tick is 0 pre-drain
        elif handles:
            # cancel a random pending event (repeat cancels included) —
            # heavy enough to trip compaction (>64 dead, dead > live)
            event, cell = handles[rng.randrange(len(handles))]
            event.cancel()
            cell["cancelled"] = True

    drain(queue)
    assert fired == reference.fire_order()
    assert len(queue) == 0
    assert queue.pop_entry() is None


@pytest.mark.parametrize("queue_class", QUEUE_CLASSES, ids=QUEUE_IDS)
def test_compaction_is_triggered_and_preserves_order(queue_class):
    queue = queue_class()
    fired = []
    victims = [queue.schedule_at(tick, lambda: fired.append("victim"))
               for tick in range(200)]
    queue.post_at(500, lambda: fired.append("survivor"))
    for victim in victims:
        victim.cancel()  # 200 dead vs 1 live: compaction must kick in
    assert len(queue) == 1
    assert queue.peek_tick() == 500
    _drain_per_event(queue)
    assert fired == ["survivor"]


# ----------------------------------------------------------------------
# plain vs sampled run-loop equivalence
# ----------------------------------------------------------------------


def _dynamic_workload(queue, seed, spawn_budget=300):
    """Callbacks that schedule same-tick work and cancel pending events.

    The rng stream is consumed in fire order, so any ordering divergence
    between two drain loops derails the logs immediately.
    """
    rng = random.Random(seed)
    log = []
    pending = {}
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
                pending[name] = queue.schedule_at(
                    queue.current_tick + offset, make(name), name=name)
            elif roll < 0.60 and budget[0] > 0:
                budget[0] -= 1
                name = f"a{next(counter)}"
                queue.post_after(rng.choice([0, 1, 3]), make(name))
            elif roll < 0.75 and pending:
                # may cancel a same-tick event queued behind this one
                keys = sorted(pending)
                victim = pending.pop(keys[rng.randrange(len(keys))])
                victim.cancel()
        return callback

    for i in range(8):
        name = f"root{i}"
        pending[name] = queue.schedule_at(i % 3, make(name), name=name)
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


def test_in_batch_cancellation_is_honoured_by_both_loops():
    # A (tick 5, earlier seq) cancels B (tick 5, later seq): B is still
    # queued when A runs and must be skipped.
    for label, build in LOOPS:
        sim = build()
        queue = sim.queue
        fired = []
        # cancelling an already-fired same-tick event is a no-op
        b = queue.schedule_at(5, lambda: fired.append("b"), name="b")
        queue.schedule_at(5, lambda: (b.cancel(), fired.append("a")),
                          name="a")
        sim.run()
        assert fired == ["b", "a"]
        assert sim.events_fired == 2

        sim = build()
        queue = sim.queue
        fired = []
        queue.post_at(5, lambda: (victim.cancel(), fired.append("a")))
        victim = queue.schedule_at(5, lambda: fired.append("b"), name="b")
        sim.run()
        assert fired == ["a"], f"{label} loop fired {fired}"
        assert sim.events_fired == 1


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


def test_tick_budget_trips_identically_across_modes():
    # the plain loop pops the tick-11 event, advancing the clock, then
    # refuses it; the sampled loop refuses it on peek
    for label, build in LOOPS:
        sim = build(max_ticks=10)
        fired = _budget_workload(sim.queue)
        with pytest.raises(SimulationLimitError, match="tick budget"):
            sim.run()
        assert fired == list(range(11)), label
        assert sim.events_fired == 11, label
        assert sim.now == (11 if label == "plain" else 10), label
