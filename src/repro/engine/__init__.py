"""Deterministic event-driven simulation engine.

The engine mirrors gem5's core abstractions in miniature:

* :class:`~repro.engine.event.EventQueue` — a priority queue of
  callbacks ordered by tick, with a stable tiebreaker so simulations are
  fully deterministic;
* :class:`~repro.engine.clock.ClockDomain` — converts between cycles of a
  component clock (CPU, GPU, memory run at different frequencies in the
  paper's Table I) and global picosecond ticks;
* :class:`~repro.engine.simulator.Simulator` — the run loop.
"""

from repro.engine.clock import ClockDomain, TICKS_PER_SECOND
from repro.engine.event import EventQueue
from repro.engine.simulator import Simulator

__all__ = [
    "ClockDomain",
    "TICKS_PER_SECOND",
    "EventQueue",
    "Simulator",
]
