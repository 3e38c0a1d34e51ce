"""Clock domains.

The simulated machine has three frequency islands (paper Table I):
the CPU core, the GPU SMs at 1.4 GHz, and the memory system at 1 GHz.
Simulation time is kept in integer picosecond *ticks* (like gem5); a
:class:`ClockDomain` converts between a component's cycles and ticks.
"""

from __future__ import annotations

#: Ticks per simulated second.  One tick is one picosecond.
TICKS_PER_SECOND = 10 ** 12


class ClockDomain:
    """A fixed-frequency clock that converts cycles to global ticks."""

    def __init__(self, name: str, frequency_hz: float) -> None:
        if frequency_hz <= 0:
            raise ValueError(f"frequency must be positive, got {frequency_hz}")
        self.name = name
        self.frequency_hz = frequency_hz
        #: integer picoseconds per cycle (rounded to keep ticks integral)
        self.period_ticks = max(1, round(TICKS_PER_SECOND / frequency_hz))

    def cycles_to_ticks(self, cycles: int) -> int:
        """Duration of *cycles* clock cycles, in ticks."""
        if cycles < 0:
            raise ValueError(f"negative cycle count {cycles}")
        return cycles * self.period_ticks

    def __repr__(self) -> str:
        ghz = self.frequency_hz / 1e9
        return f"ClockDomain({self.name}, {ghz:.2f} GHz)"
