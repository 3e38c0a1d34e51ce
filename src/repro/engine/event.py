"""Event and event-queue primitives.

Every state change in the simulated machine happens inside an event
callback.  Events fire in tick order; events scheduled for the same tick
fire in scheduling order (a monotonic sequence number breaks ties), which
makes whole-system runs bit-for-bit reproducible.

The queue is the hottest structure in the simulator (every memory
access schedules several events), so the implementation favours flat
data over abstraction.  Heap entries are plain 4-tuples

    ``(tick, seq, event_or_None, callback)``

— the first two fields alone decide ordering (sequence numbers are
unique), the third carries the :class:`Event` handle when the caller
needs cancellation, and the fourth is the callback to fire.  The hot
internal scheduling paths (:meth:`~EventQueue.post_at` /
:meth:`~EventQueue.post_after`) skip the :class:`Event` allocation
entirely and push an anonymous entry; components that never cancel
(ports, pipelines, cores) use them exclusively.

The run loop drains one entry at a time (:meth:`~EventQueue.pop_entry`),
so a callback that schedules work at the current tick draws a higher
sequence number than everything already queued for that tick and fires
after it.

The queue keeps an O(1) live-event count so ``__len__``/``__bool__``
never scan.  Cancelled events are lazily discarded on pop, but when
they outnumber the live ones the heap is compacted so pathological
cancel-heavy components cannot grow it without bound.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from typing import Callable, List, Optional, Tuple

#: compaction below this many dead entries is not worth the heapify
_COMPACT_MIN_DEAD = 64

#: heap entry shape: (tick, seq, event-or-None, callback)
QueueEntry = Tuple[int, int, Optional["Event"], Callable[[], None]]


class Event:
    """A callback scheduled to run at an absolute tick.

    Attributes:
        tick: absolute simulation time (picoseconds by convention).
        callback: zero-argument callable invoked when the event fires.
        name: optional label used in debug traces.
        cancelled: set by :meth:`cancel`; the queue discards the event.
        fired: set when the queue hands the event to a run loop.  A
            fired event is spent — rescheduling it raises.
    """

    __slots__ = ("tick", "callback", "name", "cancelled", "fired",
                 "_seq", "_queue")

    def __init__(self, tick: int, callback: Callable[[], None],
                 name: str = "") -> None:
        if tick < 0:
            raise ValueError(f"event scheduled at negative tick {tick}")
        self.tick = tick
        self.callback = callback
        self.name = name
        self.cancelled = False
        self.fired = False
        self._seq = -1  # assigned by the queue
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Mark the event dead; the queue discards it instead of firing it.

        Cancelling an event that already fired is a silent no-op (the
        work is done); cancelling twice counts once.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancel()

    def __repr__(self) -> str:
        label = self.name or getattr(self.callback, "__name__", "callback")
        return f"Event(tick={self.tick}, {label})"


class EventQueue:
    """A deterministic priority queue of simulation events."""

    def __init__(self) -> None:
        self._heap: List[QueueEntry] = []
        self._sequence = count()
        self.current_tick = 0
        self._live = 0
        self._dead = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(self, event: Event) -> Event:
        """Insert *event*; it must be fresh and not in the past.

        The lifecycle contract is enforced here: an :class:`Event` is
        single-use.  Re-pushing one that is still queued, already fired,
        or cancelled raises ``ValueError`` — before this check the
        resulting ``_queue``/``_seq`` state was ambiguous (a cancelled
        re-push corrupted the live/dead accounting).
        """
        if event._queue is not None:
            raise ValueError(f"{event!r} is already scheduled")
        if event.fired:
            raise ValueError(f"{event!r} already fired; events are "
                             "single-use")
        if event.cancelled:
            raise ValueError(f"{event!r} is cancelled and cannot be "
                             "scheduled")
        if event.tick < self.current_tick:
            raise ValueError(
                f"cannot schedule {event!r} in the past "
                f"(now={self.current_tick})")
        event._seq = next(self._sequence)
        event._queue = self
        self._live += 1
        heappush(self._heap, (event.tick, event._seq, event,
                              event.callback))
        return event

    def schedule_at(self, tick: int, callback: Callable[[], None],
                    name: str = "") -> Event:
        """Convenience wrapper: build and schedule an event in one call."""
        if tick < self.current_tick:
            raise ValueError(
                f"cannot schedule tick {tick} in the past "
                f"(now={self.current_tick})")
        event = Event(tick, callback, name)
        event._seq = next(self._sequence)
        event._queue = self
        self._live += 1
        heappush(self._heap, (tick, event._seq, event, callback))
        return event

    def schedule_after(self, delay: int, callback: Callable[[], None],
                       name: str = "") -> Event:
        """Schedule *callback* to run *delay* ticks from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = Event(self.current_tick + delay, callback, name)
        event._seq = next(self._sequence)
        event._queue = self
        self._live += 1
        heappush(self._heap, (event.tick, event._seq, event, callback))
        return event

    def post_at(self, tick: int, callback: Callable[[], None]) -> None:
        """Schedule *callback* at *tick* with no :class:`Event` handle.

        The hot scheduling path: fire-and-forget callers (ports, cores,
        pipelines — none of which ever cancel) skip the Event allocation
        and push an anonymous entry.  Ordering is identical to
        :meth:`schedule_at` — both draw from the same sequence counter.
        """
        if tick < self.current_tick:
            raise ValueError(
                f"cannot schedule tick {tick} in the past "
                f"(now={self.current_tick})")
        self._live += 1
        heappush(self._heap, (tick, next(self._sequence), None, callback))

    def post_after(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule *callback* *delay* ticks from now, anonymously."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._live += 1
        heappush(self._heap, (self.current_tick + delay,
                              next(self._sequence), None, callback))

    # ------------------------------------------------------------------
    # draining
    # ------------------------------------------------------------------

    def pop_entry(self) -> Optional[QueueEntry]:
        """Remove and return the next live entry, advancing the clock.

        Returns ``None`` when the queue is empty.  Cancelled events are
        silently discarded; the returned entry's event (if any) is
        marked fired and detached.
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            event = entry[2]
            if event is not None:
                if event.cancelled:
                    self._dead -= 1
                    continue
                # detach so a late cancel() of a fired event cannot skew
                # the live count
                event._queue = None
                event.fired = True
            self._live -= 1
            self.current_tick = entry[0]
            return entry
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, advancing the clock.

        API-compatibility wrapper over :meth:`pop_entry`: anonymous
        entries (from :meth:`post_at`/:meth:`post_after`) come back
        wrapped in a fresh, already-fired :class:`Event`.  The run loop
        uses :meth:`pop_entry` directly.
        """
        entry = self.pop_entry()
        if entry is None:
            return None
        event = entry[2]
        if event is None:
            event = Event(entry[0], entry[3])
            event.fired = True
        return event

    def peek_tick(self) -> Optional[int]:
        """Tick of the next live event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap:
            event = heap[0][2]
            if event is not None and event.cancelled:
                heappop(heap)
                self._dead -= 1
                continue
            break
        if not heap:
            return None
        return heap[0][0]

    # ------------------------------------------------------------------
    # cancellation bookkeeping
    # ------------------------------------------------------------------

    def _note_cancel(self) -> None:
        """A scheduled event was cancelled; compact if the dead dominate."""
        self._live -= 1
        self._dead += 1
        if self._dead > _COMPACT_MIN_DEAD and self._dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify the survivors."""
        self._heap = [entry for entry in self._heap
                      if entry[2] is None or not entry[2].cancelled]
        heapify(self._heap)
        self._dead = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
