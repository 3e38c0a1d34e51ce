"""The memory coalescing unit.

A warp-wide memory instruction presents up to 32 lane addresses; the
coalescer merges them into the minimal set of line-sized transactions.
A fully-coalesced access to consecutive 4-byte words touches exactly one
128-byte line; a strided or irregular access fans out into many — the
classic GPU memory-divergence effect, which the Pannotia graph workloads
exercise heavily.

The line list is always the distinct line addresses in first-lane
order, with identical statistics, whichever way it is produced:

* **precompiled** — the workload builders attach the coalesce result to
  each op at trace build time (:meth:`coalesce_op` just records stats);
* **per-lane loop** — lanes of an op without a valid precompiled list
  are walked once at issue time (:meth:`coalesce`).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.utils.bitops import is_power_of_two
from repro.utils.statistics import StatsRegistry
from repro.workloads.trace import WarpOp


class Coalescer:
    """Merges lane addresses into per-line transactions."""

    def __init__(self, name: str, line_size: int = 128) -> None:
        if not is_power_of_two(line_size):
            raise ValueError(
                f"{name}: line size must be a power of two: {line_size}")
        self.name = name
        self.line_size = line_size
        # the line mask depends only on the geometry: derive it once
        # here instead of re-deriving it per lane per instruction
        self._offset_mask = line_size - 1
        self._line_mask = ~self._offset_mask
        self.stats = StatsRegistry(name)
        self._instructions = self.stats.counter("instructions")
        self._transactions = self.stats.counter("transactions")
        self._fanout = self.stats.histogram(
            "transactions_per_instruction", [1, 2, 4, 8, 16, 32])

    def _record(self, num_lines: int) -> None:
        self._instructions.value += 1
        self._transactions.increment(num_lines)
        self._fanout.record(num_lines)

    def coalesce(self, lane_addresses: Sequence[int]) -> List[int]:
        """Distinct line addresses touched, in first-lane order."""
        if len(lane_addresses) == 0:
            return []
        line_mask = self._line_mask
        seen = set()
        lines: List[int] = []
        for address in lane_addresses:
            line = address & line_mask
            if line not in seen:
                seen.add(line)
                lines.append(line)
        self._record(len(lines))
        return lines

    def coalesce_op(self, op: WarpOp) -> List[int]:
        """Coalesce one memory op, using its precompiled lines if valid.

        Falls back to :meth:`coalesce` on the lane addresses whenever the
        op was not precompiled for this line size — results and
        statistics are identical either way.
        """
        lines = op.lines
        if lines is None or op.lines_size != self.line_size:
            return self.coalesce(op.addresses)
        if not lines:
            return lines
        self._record(len(lines))
        return lines
