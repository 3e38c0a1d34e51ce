"""The event queue.

Every state change in the simulated machine happens inside an event
callback.  Events fire in tick order; events scheduled for the same tick
fire in scheduling order (a monotonic sequence number breaks ties), which
makes whole-system runs bit-for-bit reproducible.

The queue is the hottest structure in the simulator (every memory
access schedules several events), so the implementation favours flat
data over abstraction.  Heap entries are plain 3-tuples

    ``(tick, seq, callback)``

— the first two fields alone decide ordering (sequence numbers are
unique) and the third is the callback to fire.  Components schedule
with :meth:`~EventQueue.post_at` / :meth:`~EventQueue.post_after`;
nothing is ever cancelled, so there is no event handle.

The run loop drains one entry at a time (:meth:`~EventQueue.pop_entry`),
so a callback that schedules work at the current tick draws a higher
sequence number than everything already queued for that tick and fires
after it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Callable, List, Optional, Tuple

#: heap entry shape: (tick, seq, callback)
QueueEntry = Tuple[int, int, Callable[[], None]]


class EventQueue:
    """A deterministic priority queue of simulation callbacks."""

    def __init__(self) -> None:
        self._heap: List[QueueEntry] = []
        self._sequence = count()
        self.current_tick = 0

    def post_at(self, tick: int, callback: Callable[[], None]) -> None:
        """Schedule *callback* to run at absolute *tick*."""
        if tick < self.current_tick:
            raise ValueError(
                f"cannot schedule tick {tick} in the past "
                f"(now={self.current_tick})")
        heappush(self._heap, (tick, next(self._sequence), callback))

    def post_after(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule *callback* to run *delay* ticks from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heappush(self._heap, (self.current_tick + delay,
                              next(self._sequence), callback))

    def pop_entry(self) -> Optional[QueueEntry]:
        """Remove and return the next entry, advancing the clock.

        Returns ``None`` when the queue is empty.
        """
        if not self._heap:
            return None
        entry = heappop(self._heap)
        self.current_tick = entry[0]
        return entry

    def peek_tick(self) -> Optional[int]:
        """Tick of the next entry, or ``None`` if the queue is empty."""
        heap = self._heap
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return len(self._heap)
