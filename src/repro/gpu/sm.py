"""A streaming multiprocessor with warp-level latency hiding.

Each SM holds the warps assigned to it for the current kernel and issues
one warp-op per SM cycle among the *ready* warps (loose round-robin, the
GTO-less default of GPGPU-Sim).  A warp blocks while any of its load
transactions is outstanding; other warps keep issuing — with enough
resident warps, memory latency disappears from the bottom line, and when
parallelism runs out (the paper's big-input BP/HT/LU/NW/FW discussion)
it shows up in full.

Memory path per coalesced line: GPU TLB → GPU L1 (write-through,
no-allocate on store) → the owning L2 slice's coherent port.  Every run
takes the same path: tracing, load recording and the prefetcher are
checks inside it, not a separate implementation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.coherence.hammer import AccessResult
from repro.coherence.port import CoherentPort
from repro.engine.clock import ClockDomain
from repro.engine.event import EventQueue
from repro.gpu.coalescer import Coalescer
from repro.mem.cache import SetAssociativeCache
from repro.telemetry.tracer import TRACER
from repro.utils.statistics import StatsRegistry
from repro.vm.mmu import MMU
from repro.workloads.trace import OpKind, WarpOp, WarpProgram

SliceRouter = Callable[[int], str]

#: integer op codes for the precompiled issue loop (enum identity checks
#: off the per-issue path); anything unknown maps to _K_OTHER and raises
#: at issue
_K_COMPUTE, _K_SHMEM, _K_LOAD, _K_STORE, _K_OTHER = 0, 1, 2, 3, 4

#: warp ``gate`` value meaning "cannot issue": done, or blocked on loads.
#: An int (not inf) so gate comparisons never promote to float.
_GATE_BLOCKED = 1 << 62


def _compile_ops(program: WarpProgram, period_ticks: int,
                 shmem_latency_cycles: int
                 ) -> Tuple[List[int], List[int]]:
    """(kind codes, ready-tick deltas) for a program's op list.

    COMPUTE and SHMEM ops complete a fixed number of ticks after issue;
    precomputing ``max(1, cycles) * period`` turns the issue loop's
    per-op timing arithmetic into one list index.  The compiled pair is
    cached on the program keyed by the clock parameters, so the many SMs
    sharing one clock (and repeat launches of the same trace) compile
    once.
    """
    key = (period_ticks, shmem_latency_cycles)
    cached = getattr(program, "_sm_compiled", None)
    if cached is not None and cached[0] == key:
        return cached[1], cached[2]
    ops = program.ops
    compute, shmem = OpKind.COMPUTE, OpKind.SHMEM
    load, store = OpKind.LOAD, OpKind.STORE
    # identity chain, not a dict: Enum.__hash__ is a python-level call
    kinds = [_K_COMPUTE if (kind := op.kind) is compute
             else _K_SHMEM if kind is shmem
             else _K_LOAD if kind is load
             else _K_STORE if kind is store
             else _K_OTHER
             for op in ops]
    shmem_ticks = shmem_latency_cycles * period_ticks
    # equal deltas are one int object: a long trace repeats a handful of
    # cycle counts, and each product would otherwise be a fresh int
    shared: Dict[int, int] = {}
    deltas = [shared.setdefault(delta, delta) for delta in (
        (op.cycles if op.cycles > 1 else 1) * period_ticks
        if code == _K_COMPUTE else
        (op.cycles if op.cycles > 1 else 1) * shmem_ticks
        if code == _K_SHMEM else 0
        for code, op in zip(kinds, ops))]
    try:
        program._sm_compiled = (key, kinds, deltas)
    except AttributeError:  # slotted/frozen program: recompile per launch
        pass
    return kinds, deltas


class _Warp:
    """Execution state of one resident warp.

    ``gate`` collapses the scheduler's three-field readiness test into
    one comparison: it equals ``ready_tick`` while the warp can issue
    (not done, no outstanding loads) and :data:`_GATE_BLOCKED`
    otherwise.  Every path that mutates ``done``/``pending_loads``/
    ``ready_tick`` restores the invariant before the scheduler can
    observe the warp again.
    """

    __slots__ = ("ops", "kinds", "deltas", "pc", "num_ops", "ready_tick",
                 "pending_loads", "done", "gate")

    def __init__(self, program: WarpProgram, period_ticks: int,
                 shmem_latency_cycles: int) -> None:
        self.ops: List[WarpOp] = program.ops
        self.kinds, self.deltas = _compile_ops(
            program, period_ticks, shmem_latency_cycles)
        self.pc = 0
        self.num_ops = len(self.ops)
        self.ready_tick = 0
        self.pending_loads = 0
        self.done = not self.ops
        self.gate = _GATE_BLOCKED if self.done else 0


class StreamingMultiprocessor:
    """One SM: warp scheduler + L1 + shared-memory pipe."""

    def __init__(self, name: str, queue: EventQueue, clock: ClockDomain,
                 l1: SetAssociativeCache, mmu: MMU,
                 slice_ports: Dict[str, CoherentPort],
                 slice_router: SliceRouter,
                 l1_latency_cycles: int = 28,
                 shmem_latency_cycles: int = 2,
                 record_loads: bool = False,
                 prefetcher=None) -> None:
        self.name = name
        self.queue = queue
        self.clock = clock
        self.l1 = l1
        self.mmu = mmu
        self.slice_ports = slice_ports
        self.slice_router = slice_router
        self.l1_latency_cycles = l1_latency_cycles
        self.shmem_latency_cycles = shmem_latency_cycles
        self.coalescer = Coalescer(f"{name}.coalescer", l1.line_size)
        self._line_size = l1.line_size
        # per-access latencies are fixed; convert to ticks once
        self._l1_ticks = clock.cycles_to_ticks(l1_latency_cycles)
        self._cycle_ticks = clock.cycles_to_ticks(1)
        self._period_ticks = clock.period_ticks
        # cached full-line store image, rebuilt when the value changes
        self._store_fill: Optional[Dict[int, int]] = None
        self._store_fill_value: Optional[int] = None
        self.record_loads = record_loads
        #: optional NextLinePrefetcher consulted on every L1 load miss
        self.prefetcher = prefetcher
        #: (virtual_address, value) pairs observed by loads, for oracles
        self.loaded_values: List[Tuple[int, Optional[int]]] = []
        self.stats = StatsRegistry(name)
        self._issued = self.stats.counter("warp_ops_issued")
        self._load_latency = self.stats.histogram(
            "load_latency_ticks", [1000, 5000, 20000, 100000, 500000])
        # run state
        self._warps: List[_Warp] = []
        self._rr_index = 0
        self._next_issue_tick = 0
        self._issue_scheduled = False
        self._outstanding_stores = 0
        self._on_done: Optional[Callable[[int], None]] = None
        self._active = False
        self._store_done_cb = self._store_done
        #: slice name → its L2 array's probe, resolved at first launch
        #: (agents register with the engine after ports are built)
        self._slice_probe: Optional[Dict[str, Callable]] = None
        self._co_instr = self.coalescer._instructions
        self._co_trans = self.coalescer._transactions
        self._co_fanout = self.coalescer._fanout
        tlb = mmu.tlb
        self._tlb_entries = tlb._entries
        self._tlb_hits = tlb._hits
        self._tlb_misses = tlb._misses
        self._tlb_capacity = tlb.num_entries
        self._mmu_translations = mmu._translations
        self._mmu_walk = mmu._walk_one
        self._page_size = mmu.page_table.page_size

    # ------------------------------------------------------------------

    def launch(self, programs: List[WarpProgram],
               on_done: Callable[[int], None]) -> None:
        """Begin executing *programs*; flash-invalidates the L1 first."""
        if self._active:
            raise RuntimeError(f"{self.name}: kernel already active")
        self.l1.flash_invalidate()
        if self._slice_probe is None:
            self._slice_probe = {
                name: port.engine.agents[name].cache.probe
                for name, port in self.slice_ports.items()}
        period_ticks = self._period_ticks
        shmem_cycles = self.shmem_latency_cycles
        self._warps = [_Warp(program, period_ticks, shmem_cycles)
                       for program in programs]
        self._rr_index = 0
        self._on_done = on_done
        self._active = True
        if all(warp.done for warp in self._warps):
            self.queue.post_after(0, self._maybe_finish)
            return
        self._schedule_issue()

    # ------------------------------------------------------------------
    # scheduler
    # ------------------------------------------------------------------

    def _schedule_issue(self) -> None:
        if self._issue_scheduled or not self._active:
            return
        earliest = _GATE_BLOCKED
        for warp in self._warps:
            tick = warp.gate
            if tick < earliest:
                earliest = tick
        if earliest == _GATE_BLOCKED:
            return  # everyone blocked on memory; returns will re-schedule
        target = max(self._next_issue_tick, earliest,
                     self.queue.current_tick)
        self._issue_scheduled = True
        self.queue.post_at(target, self._issue)

    def _issue(self) -> None:
        # The scheduler's hottest event: pick, execute, and re-schedule
        # are fused into one frame (the same decisions and event
        # postings as a pick / execute / _schedule_issue composition;
        # _schedule_issue itself serves the fill and launch paths).
        self._issue_scheduled = False
        if not self._active:
            return
        now = self.queue.current_tick
        warps = self._warps
        count = len(warps)
        index = self._rr_index
        picked = None
        earliest = _GATE_BLOCKED
        for _ in range(count):
            warp = warps[index]
            index += 1
            if index == count:
                index = 0
            tick = warp.gate
            if tick <= now:
                self._rr_index = index
                picked = warp
                break
            if tick < earliest:
                earliest = tick
        if picked is None:
            # the full ring was scanned, so `earliest` is the true
            # minimum gate — inline _schedule_issue without re-scanning
            if earliest == _GATE_BLOCKED:
                return  # everyone blocked; load returns will re-schedule
            target = earliest if earliest > self._next_issue_tick \
                else self._next_issue_tick
            self._issue_scheduled = True
            self.queue.post_at(target if target > now else now,
                               self._issue)
            return
        pc = picked.pc
        kind = picked.kinds[pc]
        next_pc = pc + 1
        picked.pc = next_pc
        if next_pc >= picked.num_ops:
            picked.done = True
        self._issued.value += 1
        base = now + self._cycle_ticks
        self._next_issue_tick = base
        if kind <= _K_SHMEM:  # COMPUTE or SHMEM: fixed-latency pipes
            tick = now + picked.deltas[pc]
            picked.ready_tick = tick
            if picked.done:
                picked.gate = _GATE_BLOCKED
                self._maybe_finish()
            else:
                picked.gate = tick
        elif kind == _K_LOAD:
            self._load_op(picked, picked.ops[pc], now)
            if picked.done and picked.pending_loads == 0:
                self._maybe_finish()
        elif kind == _K_STORE:
            self._store_op(picked, picked.ops[pc], now)
            if picked.done and picked.pending_loads == 0:
                self._maybe_finish()
        else:
            raise ValueError(
                f"{self.name}: warp op {picked.ops[pc].kind} not "
                f"executable")
        # inline _schedule_issue with an early exit: once any runnable
        # warp is ready at or before the next issue slot, the slot time
        # is the target regardless of the true minimum
        if self._issue_scheduled or not self._active:
            return
        if picked.gate <= base:
            # the just-issued warp is ready again by the next slot — the
            # scan below could only confirm `earliest = base`
            self._issue_scheduled = True
            self.queue.post_at(base, self._issue)
            return
        earliest = _GATE_BLOCKED
        for warp in warps:
            tick = warp.gate
            if tick <= base:
                earliest = base
                break
            if tick < earliest:
                earliest = tick
        if earliest == _GATE_BLOCKED:
            return  # everyone blocked on memory; returns will re-schedule
        self._issue_scheduled = True
        self.queue.post_at(earliest if earliest > base else base,
                           self._issue)

    # ------------------------------------------------------------------
    # memory ops: coalesce → GPU TLB → L1 → L2-slice port
    # ------------------------------------------------------------------
    #
    # The per-op layers are inlined: precompiled lines are counted here
    # instead of through Coalescer.coalesce_op, and a one-line op is
    # translated by _translate_line instead of MMU.translate_batch.
    # Every counter, LRU motion, and event posting is made in the order
    # the layered composition would make it.  Ops without precompiled
    # lines (hand-built traces) go through Coalescer.coalesce.

    def _translate_line(self, va: int, is_store: bool) -> int:
        """Inlined MMU.translate_batch for a one-line op.

        GPU TLBs carry no direct-store detector (the system builds them
        with ``detector_enabled=False``), so none is consulted here.
        """
        self._mmu_translations.value += 1
        entries = self._tlb_entries
        vpn = va // self._page_size
        pfn = entries.get(vpn)
        if pfn is None:
            self._tlb_misses.value += 1
            pfn = self._mmu_walk(va)
            if len(entries) >= self._tlb_capacity:
                entries.popitem(last=False)
            entries[vpn] = pfn
        else:
            self._tlb_hits.value += 1
            entries.move_to_end(vpn)
        return pfn * self._page_size + va % self._page_size

    def _load_op(self, warp: _Warp, op: WarpOp, now: int) -> None:
        warp.ready_tick = now + self._l1_ticks
        lines = op.lines
        if lines is None or op.lines_size != self._line_size:
            lines = self.coalescer.coalesce(op.addresses)
            num_lines = len(lines)
        else:
            num_lines = len(lines)
            if num_lines:  # an empty op counts nothing, as in coalesce_op
                self._co_instr.value += 1
                self._co_trans.value += num_lines
                self._co_fanout.record(num_lines)
        if num_lines == 1:
            pas = (self._translate_line(lines[0], False),)
            resident = (self.l1.lookup(pas[0]),)
        elif num_lines:
            pas = self.mmu.translate_batch(lines, is_store=False)
            resident = self.l1.lookup_batch(pas)
        else:
            pas = resident = ()
        record = self.record_loads
        prefetcher = self.prefetcher
        traced = TRACER.enabled
        for line_va, pa, line in zip(lines, pas, resident):
            if line is not None:
                if record:
                    self._record_line_values(op, line_va, line.data)
                continue
            warp.pending_loads += 1
            if prefetcher is not None:
                prefetcher.on_demand_miss(pa, now)
            port = self.slice_ports[self.slice_router(pa)]

            def _on_fill(result: AccessResult, pa: int = pa,
                         line_va: int = line_va) -> None:
                self._install_l1(pa)
                if record:
                    filled = self.l1.probe(pa)
                    self._record_line_values(
                        op, line_va,
                        filled.data if filled is not None else None)
                tick = self.queue.current_tick
                self._load_latency.record(tick - now)
                if traced:
                    TRACER.span("warp", "load_miss", now, tick,
                                track=self.name, args={"line": pa})
                warp.pending_loads -= 1
                if warp.pending_loads == 0:
                    warp.ready_tick = max(warp.ready_tick, tick)
                    if warp.done:
                        self._maybe_finish()
                    else:
                        warp.gate = warp.ready_tick
                        self._schedule_issue()

            port.load(pa, _on_fill)
        if warp.pending_loads or warp.done:
            warp.gate = _GATE_BLOCKED
        else:
            warp.gate = warp.ready_tick

    def _full_line_image(self, value: int) -> Dict[int, int]:
        """Word offsets → *value* for a whole line, cached per value."""
        if self._store_fill is None or self._store_fill_value != value:
            self._store_fill = dict.fromkeys(
                range(self.l1.line_size // 4), value)
            self._store_fill_value = value
        return self._store_fill

    def _store_done(self, _result: AccessResult) -> None:
        """Shared completion callback for warp stores."""
        self._outstanding_stores -= 1
        self._maybe_finish()

    def _store_op(self, warp: _Warp, op: WarpOp, now: int) -> None:
        # stores don't block the warp; the kernel drains them at the end
        warp.ready_tick = now + self._cycle_ticks
        lines = op.lines
        if lines is None or op.lines_size != self._line_size:
            lines = self.coalescer.coalesce(op.addresses)
            num_lines = len(lines)
        else:
            num_lines = len(lines)
            if num_lines:  # an empty op counts nothing, as in coalesce_op
                self._co_instr.value += 1
                self._co_trans.value += num_lines
                self._co_fanout.record(num_lines)
        if num_lines == 1:
            pas = (self._translate_line(lines[0], True),)
            residents = (self.l1.probe(pas[0]),)
        elif num_lines:
            pas = self.mmu.translate_batch(lines, is_store=True)
            # all probes precede any store (a store's walk may
            # back-invalidate a later line of this op)
            residents = self.l1.probe_batch(pas)
        else:
            pas = residents = ()
        value = op.value
        store_done = self._store_done_cb
        for pa, resident in zip(pas, residents):
            # write-through, no-allocate: update an existing L1 copy only
            if resident is not None and value is not None:
                if resident.data is None:
                    resident.data = {}
                # warp stores cover the whole coalesced line
                resident.data.update(self._full_line_image(value))
            self._outstanding_stores += 1
            self.slice_ports[self.slice_router(pa)].store(
                pa, value, store_done)
        warp.gate = _GATE_BLOCKED if warp.done else warp.ready_tick

    def _install_l1(self, physical_address: int) -> None:
        """Copy the slice-resident line up into the SM's L1."""
        if self.l1.probe(physical_address) is None:
            l2_line = self._slice_probe[
                self.slice_router(physical_address)](physical_address)
            data = None
            if l2_line is not None and l2_line.data is not None:
                data = dict(l2_line.data)
            self.l1.fill(physical_address, "V", self.queue.current_tick,
                         data)

    def _record_line_values(self, op: WarpOp, line_va: int,
                            data: Optional[dict]) -> None:
        line_mask = ~(self.l1.line_size - 1)
        for lane_va in op.addresses:
            if (lane_va & line_mask) != line_va:
                continue
            value = None
            if data is not None:
                value = data.get((lane_va % self.l1.line_size) // 4, 0)
            self.loaded_values.append((lane_va, value))

    # ------------------------------------------------------------------

    def release(self) -> None:
        """Drop the last kernel's warps and the L1 once the run is done."""
        self._warps.clear()
        self.loaded_values.clear()
        self.l1.release()

    def _maybe_finish(self) -> None:
        if not self._active:
            return
        if self._outstanding_stores > 0:
            return
        if any(not warp.done or warp.pending_loads > 0
               for warp in self._warps):
            return
        self._active = False
        on_done = self._on_done
        self._on_done = None
        assert on_done is not None
        on_done(self.queue.current_tick)
