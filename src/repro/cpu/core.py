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

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.cpu.hierarchy import CpuMemorySubsystem
from repro.engine.clock import ClockDomain
from repro.engine.event import EventQueue
from repro.utils.statistics import StatsRegistry
from repro.vm.mmu import MMU
from repro.workloads.trace import CpuOp, OpKind

# op-kind codes of a compiled phase: the issue path branches on ints
_K_STORE = 0
_K_COMPUTE = 1
_K_LOAD = 2
_K_OTHER = 3

_KIND_CODE: Dict[OpKind, int] = {
    OpKind.STORE: _K_STORE,
    OpKind.COMPUTE: _K_COMPUTE,
    OpKind.LOAD: _K_LOAD,
}

def _compile_ops(ops: List[CpuOp], period_ticks: int
                 ) -> Tuple[List[int], List[int]]:
    """(kind codes, issue deltas) for a phase's op list.

    A COMPUTE op holds the core ``max(1, cycles)`` cycles; a STORE
    retires in one cycle plus the per-element generation cost the trace
    attached to it (``cycles``); a LOAD's delta is unused (it waits for
    its data).  Equal deltas share one int object.
    """
    kinds = [_KIND_CODE.get(op.kind, _K_OTHER) for op in ops]
    shared: Dict[int, int] = {}
    deltas = []
    for code, op in zip(kinds, ops):
        cycles = op.cycles
        if code == _K_STORE:
            ticks = (1 + (cycles if cycles > 0 else 0)) * period_ticks
        elif code == _K_COMPUTE:
            ticks = (cycles if cycles > 1 else 1) * period_ticks
        else:
            ticks = 0
        deltas.append(shared.setdefault(ticks, ticks))
    return kinds, deltas


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
        if store_buffer_entries <= 0:
            raise ValueError(f"{name}: store buffer needs at least one "
                             "entry")
        #: the store buffer: a FIFO of retired ``(address, value)``
        #: stores waiting to drain
        self.store_buffer: Deque[Tuple[int, Optional[int]]] = deque()
        self._sb_capacity = store_buffer_entries
        self.max_outstanding_drains = max_outstanding_drains
        self.stats = StatsRegistry(name)
        self._cycle_ticks = clock.cycles_to_ticks(1)
        self._period_ticks = clock.period_ticks
        self._line_mask = ~(memory.engine.line_size - 1)
        self._post_after = queue.post_after
        self._translate = mmu.translate
        self._memory_store = memory.store
        # callbacks, bound once: they are posted or passed per op
        self._issue_next_cb = self._issue_next
        self._store_complete_cb = self._store_complete
        self._drain_accepted_cb = self._drain_accepted
        self._ops_executed = self.stats.counter("ops_executed")
        self._load_latency = self.stats.histogram(
            "load_latency_ticks", [1000, 5000, 20000, 100000, 500000])
        self._sb_stall_ticks = self.stats.counter(
            "store_buffer_stall_events")
        # run state
        self._ops: List[CpuOp] = []
        self._kinds: List[int] = []
        self._deltas: List[int] = []
        self._num_ops = 0
        self._next_op = 0
        self._drains_outstanding = 0
        self._stores_inflight = 0
        #: the next op is a store waiting for a free buffer entry
        self._stalled_on_store = False
        self._on_done: Optional[Callable[[int], None]] = None
        self._running = False

    # ------------------------------------------------------------------

    def run_phase(self, ops: List[CpuOp],
                  on_done: Callable[[int], None]) -> None:
        """Begin executing *ops*; *on_done(finish_tick)* fires at the end."""
        if self._running:
            raise RuntimeError(f"{self.name}: already running a phase")
        self._ops = ops
        self._kinds, self._deltas = _compile_ops(ops, self._period_ticks)
        self._num_ops = len(ops)
        self._next_op = 0
        self._on_done = on_done
        self._running = True
        self._post_after(0, self._issue_next_cb)

    # ------------------------------------------------------------------

    def _issue_next(self) -> None:
        index = self._next_op
        if index >= self._num_ops:
            self._maybe_finish()
            return
        self._next_op = index + 1
        kind = self._kinds[index]

        if kind == _K_STORE:
            sb_queue = self.store_buffer
            if (not sb_queue and self._drains_outstanding
                    < self.max_outstanding_drains):
                # empty buffer, free drain slot: the store passes
                # straight through it (pushed and drained at once, with
                # nothing queued to combine it with)
                op = self._ops[index]
                self._ops_executed.value += 1
                self._drains_outstanding += 1
                self._stores_inflight += 1
                self._memory_store(self._translate(op.address, True),
                                   op.value, self._store_complete_cb, None,
                                   self._drain_accepted_cb)
            elif len(sb_queue) >= self._sb_capacity:
                # buffer full: stall until a drain completes
                self._sb_stall_ticks.value += 1
                self._stalled_on_store = True
                self._next_op = index  # re-issue this op when unstalled
                return
            else:
                op = self._ops[index]
                sb_queue.append((op.address, op.value))
                self._ops_executed.value += 1
                if self._drains_outstanding < self.max_outstanding_drains:
                    self._kick_drain()
            self._post_after(self._deltas[index], self._issue_next_cb)
            return
        if kind == _K_COMPUTE:
            self._ops_executed.value += 1
            self._post_after(self._deltas[index], self._issue_next_cb)
            return
        if kind == _K_LOAD:
            self._ops_executed.value += 1
            self._issue_load(self._ops[index])
            return
        raise ValueError(
            f"{self.name}: CPU op {self._ops[index].kind} not executable")

    def forwards(self, address: int) -> bool:
        """Store-to-load forwarding: is a store to *address* buffered?

        A store without a tracked value (``None``) still forwards.
        """
        for buffered_address, _value in self.store_buffer:
            if buffered_address == address:
                return True
        return False

    def _issue_load(self, op: CpuOp) -> None:
        if self.forwards(op.address):
            # store-to-load forwarding: one-cycle bypass
            self._post_after(self._cycle_ticks, self._issue_next_cb)
            return
        issue_tick = self.queue.current_tick
        translation = self._translate(op.address, False)

        def _done(_result) -> None:
            self._load_latency.record(self.queue.current_tick - issue_tick)
            self._issue_next()

        self.memory.load(translation, _done)

    # ------------------------------------------------------------------
    # drain engine
    # ------------------------------------------------------------------

    def _kick_drain(self) -> None:
        """Issue buffered stores while drain slots are free.

        Callers have checked that a slot is free.
        """
        sb_queue = self.store_buffer
        max_drains = self.max_outstanding_drains
        line_mask = self._line_mask
        translate = self._translate
        memory_store = self._memory_store
        while sb_queue and self._drains_outstanding < max_drains:
            address, value = sb_queue.popleft()
            # write combining: fold adjacent queued stores to the same
            # line into one transaction (streaming produce loops combine
            # a whole line per drain)
            line = address & line_mask
            extra_words = None
            while sb_queue and (sb_queue[0][0] & line_mask) == line:
                if extra_words is None:
                    extra_words = [sb_queue.popleft()]
                else:
                    extra_words.append(sb_queue.popleft())
            self._drains_outstanding += 1
            self._stores_inflight += 1
            memory_store(translate(address, True), value,
                         self._store_complete_cb, extra_words,
                         self._drain_accepted_cb)

    def _drain_accepted(self) -> None:
        """The memory system took the store; free its drain slot."""
        self._drains_outstanding -= 1
        if self.store_buffer:
            self._kick_drain()
        if self._stalled_on_store:
            self._stalled_on_store = False
            self._post_after(0, self._issue_next_cb)

    def _store_complete(self, _result) -> None:
        """The store is globally performed (fill/forward finished)."""
        self._stores_inflight -= 1
        if not self._stores_inflight:
            self._maybe_finish()

    def release(self) -> None:
        """Drop the last phase's ops once the run is done."""
        self._ops = []
        self._kinds = []
        self._deltas = []
        self._num_ops = 0
        self._stalled_on_store = False

    def _maybe_finish(self) -> None:
        if (self._running and self._next_op >= self._num_ops
                and not self.store_buffer
                and self._drains_outstanding == 0
                and self._stores_inflight == 0
                and not self._stalled_on_store):
            self._running = False
            on_done = self._on_done
            self._on_done = None
            assert on_done is not None
            on_done(self.queue.current_tick)
