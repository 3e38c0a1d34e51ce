"""Event-driven port from a cache controller into the Hammer engine.

The engine's walks are synchronous (they compute a completion tick); the
CPU core and GPU SMs are event-driven with many concurrent accesses.  A
:class:`CoherentPort` bridges the two and enforces per-line
serialization with an MSHR file:

* a request to a line already in flight *merges* — its callback runs
  when the first request's fill returns (no duplicate traffic);
* otherwise the walk runs, an MSHR entry tracks it, and the callback is
  scheduled at the walk's completion tick.

This mirrors Ruby's transient-state behaviour at transaction
granularity: while a line is in flight, later requestors wait instead of
racing.  The request path itself is
:class:`~repro.coherence.batch_kernel.PortBatchKernel`, around the
agent's :class:`~repro.coherence.batch_kernel.CoherenceWalk`.
"""

from __future__ import annotations

from collections import deque

from repro.coherence.batch_kernel import PortBatchKernel
from repro.coherence.hammer import HammerSystem
from repro.engine.event import EventQueue
from repro.mem.mshr import MSHRFile


class CoherentPort(PortBatchKernel):
    """Per-controller access point into the coherence engine."""

    def __init__(self, name: str, agent_name: str, engine: HammerSystem,
                 queue: EventQueue, num_mshrs: int = 16) -> None:
        self.name = name
        self.agent_name = agent_name
        self.engine = engine
        self.queue = queue
        self.mshrs = MSHRFile(f"{name}.mshr", num_mshrs)
        self._mshr_entries = self.mshrs._entries
        self._mshr_merges = self.mshrs._merges
        self._num_mshrs = num_mshrs
        self._line_mask = ~(engine.line_size - 1)
        self._post_at = queue.post_at
        self._post_after = queue.post_after
        #: requests stalled on a full MSHR file, drained in FIFO order
        #: when entries retire
        self._waiting: "deque" = deque()
        #: the agent's demand walk, bound by the first request
        self._access = self._resolve_walk
