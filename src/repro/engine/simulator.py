"""The simulation run loop.

:meth:`Simulator.run` fires events one heap pop at a time, in
``(tick, sequence)`` order, until the queue drains or the event budget
trips.  When an interval sampler is attached the same loop runs in
:meth:`Simulator._run_sampled`, which peeks at the next tick first so
samples land between events without posting anything on the queue.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

from repro.engine.event import EventQueue


#: the collector is process-wide, so the count of open suspensions and
#: the state to restore after the last one are too
_gc_lock = threading.Lock()
_gc_depth = 0
_gc_restore = False


@contextmanager
def gc_suspended() -> Iterator[None]:
    """Keep the cyclic garbage collector off for the enclosed block.

    A simulation point allocates heavily (trace ops, cache lines, heap
    entries, callbacks) but creates nothing the cyclic collector needs
    to free while it runs; its periodic scans are pure pause time.
    Refcounting still reclaims the bulk of the garbage immediately.

    Suspensions nest, also across threads: the first one in records
    whether the collector was on and the last one out restores exactly
    that, on every exit path.
    """
    global _gc_depth, _gc_restore
    with _gc_lock:
        if _gc_depth == 0:
            _gc_restore = gc.isenabled()
            gc.disable()
        _gc_depth += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_depth -= 1
            if _gc_depth == 0 and _gc_restore:
                gc.enable()


class SimulationLimitError(RuntimeError):
    """Raised when a run exceeds its event budget.

    A budget overrun almost always means a component deadlocked and is
    rescheduling itself forever, so we fail loudly instead of spinning.
    """


class Simulator:
    """Drives an :class:`~repro.engine.event.EventQueue` to exhaustion.

    The simulator is intentionally minimal: components schedule events
    against :attr:`queue`; :meth:`run` fires them in order until the queue
    drains or the event budget trips.
    """

    def __init__(self, max_events: int = 200_000_000) -> None:
        self.queue = EventQueue()
        self.max_events = max_events
        self.events_fired = 0
        #: optional IntervalSampler driven inline from the run loop.
        #: When ``None`` the loop is byte-for-byte the seed hot path.
        self.sampler = None

    @property
    def now(self) -> int:
        """Current simulation tick."""
        return self.queue.current_tick

    def run(self) -> int:
        """Fire events until the queue is empty; return the final tick.

        The loop leaves the garbage collector alone: a simulation point
        suspends it once, around trace build, run and collection
        (:func:`gc_suspended`, entered by
        :meth:`~repro.core.system.IntegratedSystem.run`).
        """
        if self.sampler is None:
            return self._run()
        return self._run_sampled()

    def _run(self) -> int:
        """The event loop: one heap pop per event.

        The loop binds everything it touches to locals — each iteration
        is a handful of bytecodes around the callback, which matters when
        a benchmark fires tens of millions of events.  ``events_fired``
        is synchronised back on every exit path.
        """
        queue = self.queue
        pop_entry = queue.pop_entry
        max_events = self.max_events
        fired = self.events_fired
        try:
            while True:
                entry = pop_entry()
                if entry is None:
                    return queue.current_tick
                fired += 1
                if fired > max_events:
                    raise SimulationLimitError(
                        f"event budget exceeded ({max_events}); "
                        "likely a scheduling livelock")
                entry[2]()
        finally:
            self.events_fired = fired

    def _run_sampled(self) -> int:
        """Event loop with inline interval sampling.

        Samples are taken between events — the sampler posts nothing on
        the queue — so the event sequence, every tick, and every
        component statistic are identical to the unsampled loop.  Each
        boundary crossed before the next event's tick is sampled first,
        giving the boundary sample a view of counters covering exactly
        ``[boundary - interval, boundary)``.
        """
        queue = self.queue
        peek = queue.peek_tick
        pop_entry = queue.pop_entry
        sampler = self.sampler
        max_events = self.max_events
        fired = self.events_fired
        try:
            while True:
                next_tick = peek()
                if next_tick is None:
                    return queue.current_tick
                if next_tick >= sampler.next_tick:
                    sampler.advance_to(next_tick)
                entry = pop_entry()
                assert entry is not None
                fired += 1
                if fired > max_events:
                    raise SimulationLimitError(
                        f"event budget exceeded ({max_events}); "
                        "likely a scheduling livelock")
                entry[2]()
        finally:
            self.events_fired = fired
