"""The in-order CPU core.

Executes a :class:`~repro.workloads.trace.CpuPhase` op by op:

* ``COMPUTE`` advances time;
* ``LOAD`` blocks the core until data returns (checking the store
  buffer first for store-to-load forwarding);
* ``STORE`` retires into the store buffer in one cycle and the core
  moves on; a background drain engine issues up to
  ``max_outstanding_drains`` stores to the memory subsystem at once.
  When the buffer fills, the core stalls — this is the channel through
  which a slow store path (e.g. a congested direct-store network) slows
  the CPU down, exactly the trade the paper describes in §III-B.

The phase is *done* when every op has issued, the buffer is empty, and
no drain is in flight.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cpu.hierarchy import CpuMemorySubsystem
from repro.engine.clock import ClockDomain
from repro.engine.event import EventQueue
from repro.mem.writebuffer import WriteBuffer
from repro.utils.statistics import StatsRegistry
from repro.vm.mmu import MMU
from repro.workloads.trace import CpuOp, OpKind


class CpuCore:
    """Single in-order core driving the CPU memory subsystem."""

    def __init__(self, name: str, queue: EventQueue, clock: ClockDomain,
                 mmu: MMU, memory: CpuMemorySubsystem,
                 store_buffer_entries: int = 32,
                 max_outstanding_drains: int = 8) -> None:
        self.name = name
        self.queue = queue
        self.clock = clock
        self.mmu = mmu
        self.memory = memory
        self.store_buffer = WriteBuffer(f"{name}.sb", store_buffer_entries)
        self.max_outstanding_drains = max_outstanding_drains
        self.stats = StatsRegistry(name)
        self._cycle_ticks = clock.cycles_to_ticks(1)
        self._period_ticks = clock.period_ticks
        self._line_mask = ~(memory.engine.line_size - 1)
        # drain-engine callbacks, bound once (they are passed on every
        # drained store)
        self._store_complete_cb = self._store_complete
        self._drain_accepted_cb = self._drain_accepted
        self._ops_executed = self.stats.counter("ops_executed")
        self._load_latency = self.stats.histogram(
            "load_latency_ticks", [1000, 5000, 20000, 100000, 500000])
        self._sb_stall_ticks = self.stats.counter(
            "store_buffer_stall_events")
        # run state
        self._ops: List[CpuOp] = []
        self._next_op = 0
        self._drains_outstanding = 0
        self._stores_inflight = 0
        self._stalled_on_store: Optional[CpuOp] = None
        self._on_done: Optional[Callable[[int], None]] = None
        self._running = False

    # ------------------------------------------------------------------

    def run_phase(self, ops: List[CpuOp],
                  on_done: Callable[[int], None]) -> None:
        """Begin executing *ops*; *on_done(finish_tick)* fires at the end."""
        if self._running:
            raise RuntimeError(f"{self.name}: already running a phase")
        self._ops = ops
        self._next_op = 0
        self._on_done = on_done
        self._running = True
        self.queue.post_after(0, self._issue_next)

    # ------------------------------------------------------------------

    def _issue_next(self) -> None:
        if self._next_op >= len(self._ops):
            self._maybe_finish()
            return
        op = self._ops[self._next_op]
        self._next_op += 1

        if op.kind is OpKind.COMPUTE:
            self._ops_executed.increment()
            self.queue.post_after(max(1, op.cycles) * self._period_ticks,
                              self._issue_next)
            return
        if op.kind is OpKind.LOAD:
            self._ops_executed.increment()
            self._issue_load(op)
            return
        if op.kind is OpKind.STORE:
            self._issue_store(op)
            return
        raise ValueError(f"{self.name}: CPU op {op.kind} not executable")

    def _issue_load(self, op: CpuOp) -> None:
        forwarded = self.store_buffer.forwards(op.address)
        if forwarded is not None:
            # store-to-load forwarding: one-cycle bypass
            self.queue.post_after(self._cycle_ticks, self._issue_next)
            return
        issue_tick = self.queue.current_tick
        translation = self.mmu.translate(op.address, is_store=False)

        def _done(_result) -> None:
            self._load_latency.record(self.queue.current_tick - issue_tick)
            self._issue_next()

        self.memory.load(translation, _done)

    def _issue_store(self, op: CpuOp) -> None:
        if not self.store_buffer.push(op.address, op.value):
            # buffer full: stall until a drain completes
            self._sb_stall_ticks.increment()
            self._stalled_on_store = op
            self._next_op -= 1  # re-issue this op when unstalled
            return
        self._ops_executed.increment()
        self._kick_drain()
        # a store retires in one cycle plus any per-element generation
        # cost the trace attached to it (op.cycles)
        self.queue.post_after(
            (1 + max(0, op.cycles)) * self._period_ticks,
            self._issue_next)

    # ------------------------------------------------------------------
    # drain engine
    # ------------------------------------------------------------------

    def _kick_drain(self) -> None:
        sb_queue = self.store_buffer._queue
        if not sb_queue \
                or self._drains_outstanding >= self.max_outstanding_drains:
            return
        line_mask = self._line_mask
        drained = self.store_buffer._drained
        translate = self.mmu.translate
        memory_store = self.memory.store
        while (self._drains_outstanding < self.max_outstanding_drains
               and sb_queue):
            drained.value += 1
            address, value, _size = sb_queue.popleft()
            # write combining: fold adjacent queued stores to the same
            # line into one transaction (streaming produce loops combine
            # a whole line per drain)
            line = address & line_mask
            extra_words = []
            while sb_queue:
                head = sb_queue[0]
                if (head[0] & line_mask) != line:
                    break
                drained.value += 1
                sb_queue.popleft()
                extra_words.append((head[0], head[1]))
            self._drains_outstanding += 1
            self._stores_inflight += 1
            translation = translate(address, is_store=True)
            memory_store(translation, value, self._store_complete_cb,
                         extra_words=extra_words,
                         on_accept=self._drain_accepted_cb)

    def _drain_accepted(self) -> None:
        """The memory system took the store; free its drain slot."""
        self._drains_outstanding -= 1
        self._kick_drain()
        if self._stalled_on_store is not None:
            self._stalled_on_store = None
            self.queue.post_after(0, self._issue_next)

    def _store_complete(self, _result) -> None:
        """The store is globally performed (fill/forward finished)."""
        self._stores_inflight -= 1
        self._maybe_finish()

    def release(self) -> None:
        """Drop the last phase's ops once the run is done."""
        self._ops = []
        self._stalled_on_store = None

    def _maybe_finish(self) -> None:
        if (self._running and self._next_op >= len(self._ops)
                and self.store_buffer.is_empty
                and self._drains_outstanding == 0
                and self._stores_inflight == 0
                and self._stalled_on_store is None):
            self._running = False
            on_done = self._on_done
            self._on_done = None
            assert on_done is not None
            on_done(self.queue.current_tick)
