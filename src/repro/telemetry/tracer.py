"""The tick-time event tracer.

A :class:`Tracer` collects typed, categorized events stamped with
simulated ticks.  Components emit through the process-wide
:data:`TRACER` instance and guard every call site with
``TRACER.enabled`` so a disabled tracer costs one attribute read on the
hot path.

Two event shapes cover everything the exporters need:

* **instant** — something happened at one tick (a crossbar message, a
  DRAM row miss, a TLB walk);
* **span** — something occupied a tick range (a forwarded store's
  network flight, a warp load's miss latency, a workload phase).

The buffer is bounded: past ``capacity`` events the tracer counts drops
instead of growing without bound, and every exporter reports the dropped
count so truncated history is never silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: the event categories components emit (exporters accept any string,
#: but the standard instrumentation sticks to these)
CATEGORIES = (
    "coherence",
    "direct_store",
    "network",
    "dram",
    "tlb",
    "cache",
    "warp",
    "phase",
)

#: default event-buffer capacity
DEFAULT_CAPACITY = 1_000_000


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event.

    ``dur == 0`` marks an instant event; a positive ``dur`` makes it a
    span covering ``[tick, tick + dur)``.  ``track`` names the component
    timeline the event belongs to (it becomes the Perfetto thread).
    """

    tick: int
    dur: int
    category: str
    name: str
    track: str
    args: Optional[Dict[str, object]] = None

    @property
    def is_span(self) -> bool:
        return self.dur > 0


class Tracer:
    """Bounded, categorized event log keyed on simulated ticks."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self.enabled = False
        self.events: List[TraceEvent] = []
        self.dropped = 0
        #: clock bound by the system under trace; ``now()`` falls back
        #: to 0 so components can emit before a system exists (tests)
        self._clock: Optional[Callable[[], int]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def configure(self, capacity: Optional[int] = None) -> None:
        """Adjust the buffer bound (applies to future events)."""
        if capacity is not None:
            if capacity <= 0:
                raise ValueError("tracer capacity must be positive")
            self.capacity = capacity

    def clear(self) -> None:
        """Drop all recorded events and the dropped count."""
        self.events.clear()
        self.dropped = 0

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Give the tracer a current-tick source (the event queue's)."""
        self._clock = clock

    def now(self) -> int:
        """Current simulated tick, or 0 when no clock is bound."""
        clock = self._clock
        return clock() if clock is not None else 0

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------

    def instant(self, category: str, name: str, tick: int,
                track: str = "sim",
                args: Optional[Dict[str, object]] = None) -> None:
        """Record a point event at *tick*."""
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(TraceEvent(tick, 0, category, name, track, args))

    def span(self, category: str, name: str, start: int, end: int,
             track: str = "sim",
             args: Optional[Dict[str, object]] = None) -> None:
        """Record a duration event covering ``[start, end)``.

        A non-positive duration degrades to an instant at *start* (the
        walk-style timing model occasionally produces zero-length hops).
        """
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        dur = end - start
        if dur < 0:
            dur = 0
        self.events.append(TraceEvent(start, dur, category, name, track,
                                      args))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def category_counts(self) -> Dict[str, int]:
        """``{category: recorded event count}`` over the buffer."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.category] = counts.get(event.category, 0) + 1
        return counts

    def for_category(self, category: str) -> List[TraceEvent]:
        return [event for event in self.events
                if event.category == category]

    def __len__(self) -> int:
        return len(self.events)


#: the process-wide tracer every component emits through
TRACER = Tracer()
