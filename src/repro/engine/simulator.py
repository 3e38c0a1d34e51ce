"""The simulation run loop.

Three interchangeable, bit-identical drain strategies (see
:mod:`repro.engine.modes`):

* ``epoch`` (default) — :meth:`Simulator._run_epoch` extracts every
  live event of the current tick in one :meth:`EventQueue.pop_epoch`
  pass and dispatches from a flat batch, paying loop overhead per epoch
  instead of per event.
* ``scalar`` (``REPRO_SCALAR_ENGINE=1``) — :meth:`Simulator._run`, the
  original one-pop-per-event loop, kept as the escape hatch CI uses to
  prove equivalence.
* ``compiled`` (``REPRO_COMPILED_ENGINE=1``) — the same epoch dispatch
  loop, but over a :class:`~repro.engine.compiled.CompiledEventQueue`
  whose heap inner loops are numba-compilable int64 array code.

Equivalence argument for epoch draining: a callback can only schedule
at the current tick or later, and anything it adds at the current tick
draws a higher sequence number than every entry already extracted, so
it lands in the *next* epoch of the same tick — exactly where the
per-event loop would fire it.  Cancels issued inside a batch are
honoured at dispatch (the loop re-checks ``cancelled`` and skips
without counting), matching the scalar loop's lazy discard.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.engine.event import EventQueue
from repro.engine.modes import engine_mode
from repro.utils.profiler import PROFILER


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
    """Raised when a run exceeds its event or tick budget.

    A budget overrun almost always means a component deadlocked and is
    rescheduling itself forever, so we fail loudly instead of spinning.
    """


class Simulator:
    """Drives an :class:`~repro.engine.event.EventQueue` to exhaustion.

    The simulator is intentionally minimal: components schedule events
    against :attr:`queue`; :meth:`run` fires them in order until the queue
    drains or a budget trips.  The engine mode is resolved once, at
    construction (systems are single-use, so this is the run's mode).
    """

    def __init__(self, max_events: int = 200_000_000,
                 max_ticks: Optional[int] = None) -> None:
        self.engine_mode = engine_mode()
        if self.engine_mode == "compiled":
            from repro.engine.compiled import CompiledEventQueue
            self.queue: EventQueue = CompiledEventQueue()
        else:
            self.queue = EventQueue()
        self.max_events = max_events
        self.max_ticks = max_ticks
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

        When profiling is enabled, the whole event loop is attributed to
        the ``engine`` section; sections opened by event callbacks
        (coalescer, TLB, cache, protocol) subtract themselves from the
        engine's self time, and epoch extraction is broken out into
        ``engine_batch``.

        The loop leaves the garbage collector alone: a simulation point
        suspends it once, around trace build, run and collection
        (:func:`gc_suspended`, entered by
        :meth:`~repro.core.system.IntegratedSystem.run`).
        """
        if self.sampler is not None:
            # sampling interleaves with the queue between events; the
            # per-event loop is the natural (and already cheap) shape
            loop = self._run_sampled
        elif self.engine_mode == "scalar":
            loop = self._run
        else:
            # "epoch" and "compiled" share the dispatch loop; compiled
            # mode differs only inside the queue's heap operations
            loop = self._run_epoch
        prof = PROFILER
        if not prof.enabled:
            return loop()
        prof.start("engine")
        try:
            return loop()
        finally:
            prof.stop()

    def _run(self) -> int:
        """The scalar escape hatch: one heap pop per event.

        The loop binds everything it touches to locals — each iteration
        is a handful of bytecodes around the callback, which matters when
        a benchmark fires tens of millions of events.  ``events_fired``
        is synchronised back on every exit path.
        """
        queue = self.queue
        pop_entry = queue.pop_entry
        max_events = self.max_events
        max_ticks = self.max_ticks
        fired = self.events_fired
        try:
            if max_ticks is None:
                while True:
                    entry = pop_entry()
                    if entry is None:
                        return queue.current_tick
                    fired += 1
                    if fired > max_events:
                        raise SimulationLimitError(
                            f"event budget exceeded ({max_events}); "
                            "likely a scheduling livelock")
                    entry[3]()
            while True:
                entry = pop_entry()
                if entry is None:
                    return queue.current_tick
                if entry[0] > max_ticks:
                    raise SimulationLimitError(
                        f"tick budget exceeded: {entry[0]} > {max_ticks}")
                fired += 1
                if fired > max_events:
                    raise SimulationLimitError(
                        f"event budget exceeded ({max_events}); "
                        "likely a scheduling livelock")
                entry[3]()
        finally:
            self.events_fired = fired

    def _run_epoch(self) -> int:
        """The epoch loop: drain whole tick batches at a time.

        Per epoch: one ``pop_epoch`` (a run of C-level ``heappop`` calls
        into a reused list), one budget comparison, then a tight
        dispatch loop of ``entry[3]()`` calls.  Near the event budget
        the loop falls back to per-event accounting so the limit trips
        after exactly the same event as the scalar loop.  Entries whose
        event was cancelled by an earlier callback in the same batch are
        skipped without counting, matching scalar lazy discard.
        """
        queue = self.queue
        pop_epoch = queue.pop_epoch
        max_events = self.max_events
        max_ticks = self.max_ticks
        fired = self.events_fired
        batch: list = []
        prof = PROFILER
        profiling = prof.enabled
        try:
            while True:
                if profiling:
                    prof.start("engine_batch")
                    extracted = pop_epoch(batch)
                    prof.stop()
                else:
                    extracted = pop_epoch(batch)
                if not extracted:
                    return queue.current_tick
                if max_ticks is not None and queue.current_tick > max_ticks:
                    raise SimulationLimitError(
                        f"tick budget exceeded: {queue.current_tick} > "
                        f"{max_ticks}")
                if fired + extracted > max_events:
                    # careful tail: count per event so the budget trips
                    # at exactly the same event as the scalar loop
                    for entry in batch:
                        event = entry[2]
                        if event is not None and event.cancelled:
                            continue
                        fired += 1
                        if fired > max_events:
                            raise SimulationLimitError(
                                f"event budget exceeded ({max_events}); "
                                "likely a scheduling livelock")
                        entry[3]()
                    continue
                for entry in batch:
                    event = entry[2]
                    if event is not None and event.cancelled:
                        continue
                    fired += 1
                    entry[3]()
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
        max_ticks = self.max_ticks
        fired = self.events_fired
        try:
            while True:
                next_tick = peek()
                if next_tick is None:
                    return queue.current_tick
                if next_tick >= sampler.next_tick:
                    sampler.advance_to(next_tick)
                if max_ticks is not None and next_tick > max_ticks:
                    raise SimulationLimitError(
                        f"tick budget exceeded: {next_tick} > {max_ticks}")
                entry = pop_entry()
                assert entry is not None
                fired += 1
                if fired > max_events:
                    raise SimulationLimitError(
                        f"event budget exceeded ({max_events}); "
                        "likely a scheduling livelock")
                entry[3]()
        finally:
            self.events_fired = fired

    def run_until(self, tick: int) -> int:
        """Fire events up to and including *tick*; return the current tick."""
        queue = self.queue
        peek = queue.peek_tick
        pop_entry = queue.pop_entry
        max_events = self.max_events
        fired = self.events_fired
        try:
            while True:
                next_tick = peek()
                if next_tick is None or next_tick > tick:
                    return queue.current_tick
                entry = pop_entry()
                assert entry is not None
                fired += 1
                if fired > max_events:
                    raise SimulationLimitError(
                        f"event budget exceeded ({max_events})")
                entry[3]()
        finally:
            self.events_fired = fired
