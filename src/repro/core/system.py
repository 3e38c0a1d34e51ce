"""The integrated CPU-GPU system: construction and execution.

:class:`IntegratedSystem` wires every substrate together according to a
:class:`~repro.core.config.SystemConfig` and a
:class:`~repro.core.protocol_mode.CoherenceMode`, then runs a workload's
phases back to back on the event queue.  One instance runs one
workload once (caches and statistics are not reusable across runs); the
harness builds a fresh system per data point.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.coherence.hammer import MEMCTRL, CoherentAgent, HammerSystem
from repro.coherence.port import CoherentPort
from repro.core.config import SystemConfig
from repro.core.direct_store import DirectStoreUnit
from repro.core.metrics import (
    RunResult,
    merge_snapshots,
    snapshot_cache,
)
from repro.core.protocol_mode import CoherenceMode
from repro.cpu.core import CpuCore
from repro.cpu.hierarchy import CpuMemorySubsystem
from repro.engine.clock import ClockDomain
from repro.engine.simulator import Simulator, gc_suspended
from repro.gpu.gpu import GpuDevice
from repro.gpu.sm import StreamingMultiprocessor
from repro.interconnect.direct_network import DirectStoreNetwork
from repro.interconnect.network import Crossbar
from repro.mem.cache import SetAssociativeCache
from repro.mem.dram import DramModel
from repro.mem.memimage import MemoryImage
from repro.telemetry import (
    TRACER,
    IntervalSampler,
    Probe,
    TelemetrySettings,
)
from repro.utils.bitops import is_power_of_two, log2_exact
from repro.vm.mmap import MmapAllocator
from repro.vm.mmu import MMU
from repro.vm.pagetable import PageTable, PhysicalFrameAllocator
from repro.vm.tlb import TLB
from repro.workloads.base import BuildContext, Workload
from repro.workloads.trace import CpuPhase, KernelLaunch


class IntegratedSystem:
    """One simulated Table I machine under one coherence mode."""

    def __init__(self, config: Optional[SystemConfig] = None,
                 mode: CoherenceMode = CoherenceMode.CCSM,
                 record_gpu_loads: bool = False,
                 telemetry: Optional[TelemetrySettings] = None) -> None:
        self.config = config or SystemConfig()
        self.mode = mode
        self.telemetry = telemetry or TelemetrySettings()
        cfg = self.config

        # --- clocks and engine -----------------------------------------
        self.cpu_clock = ClockDomain("cpu", cfg.cpu.frequency_hz)
        self.gpu_clock = ClockDomain("gpu", cfg.gpu.frequency_hz)
        self.mem_clock = ClockDomain("mem", cfg.dram.frequency_hz)
        self.simulator = Simulator(max_events=cfg.max_events)
        self.queue = self.simulator.queue

        # --- memory and VM ----------------------------------------------
        self.dram = DramModel(cfg.dram)
        self.image = MemoryImage(cfg.line_size) if cfg.track_values else None
        frames = PhysicalFrameAllocator(cfg.dram.size_bytes)
        self.page_table = PageTable(frames)
        self.allocator = MmapAllocator()
        self.dsu = DirectStoreUnit(
            mode, self.allocator, self.page_table,
            hybrid_threshold=cfg.hybrid_threshold_bytes)

        # --- interconnect ------------------------------------------------
        self.slice_names = [f"gpu.l2.slice{i}"
                            for i in range(cfg.gpu.l2_slices)]
        # consecutive lines interleave across the slices: a line's slice
        # is its line number modulo the (power-of-two) slice count
        self._line_bits = log2_exact(cfg.line_size)
        if not is_power_of_two(cfg.gpu.l2_slices):
            raise ValueError(
                f"slice count must be a power of two: {cfg.gpu.l2_slices}")
        self._slice_mask = cfg.gpu.l2_slices - 1
        self.network = Crossbar(
            "xbar", self.mem_clock, ["cpu", *self.slice_names, MEMCTRL],
            hop_latency_cycles=cfg.network.hop_latency_cycles,
            bytes_per_cycle=cfg.network.bytes_per_cycle,
            line_size=cfg.line_size)
        self.engine = HammerSystem(
            self.network, self.dram, self.image, self.mem_clock,
            memctrl_latency_cycles=cfg.network.memctrl_latency_cycles,
            broadcast_enabled=mode.broadcast_enabled)

        # --- CPU side ----------------------------------------------------
        self.cpu_l2 = SetAssociativeCache(
            "cpu.l2", cfg.cpu.l2_size, cfg.cpu.l2_ways, cfg.line_size,
            cfg.replacement)
        self.cpu_l1d = SetAssociativeCache(
            "cpu.l1d", cfg.cpu.l1d_size, cfg.cpu.l1d_ways, cfg.line_size,
            cfg.replacement)
        self.cpu_l1i = SetAssociativeCache(
            "cpu.l1i", cfg.cpu.l1i_size, cfg.cpu.l1i_ways, cfg.line_size,
            cfg.replacement)
        cpu_agent = CoherentAgent(
            "cpu", self.cpu_l2, self.cpu_clock, cfg.cpu.l2_latency_cycles,
            may_cache=lambda line: not self.dsu.is_ds_physical_line(line))
        # broadcast protocol: the CPU is probed for every line, including
        # window lines it can never cache (it acks from I)
        cpu_agent.probe_filter = lambda _line: True
        self.engine.add_agent(cpu_agent)
        self.cpu_port = CoherentPort("cpu.port", "cpu", self.engine,
                                     self.queue, cfg.cpu.num_mshrs)
        self.cpu_tlb = TLB("cpu.tlb", cfg.cpu.tlb_entries,
                           detector_enabled=mode.forwarding_enabled)
        self.cpu_mmu = MMU("cpu.mmu", self.page_table, self.cpu_tlb,
                           walk_cycles=cfg.cpu.tlb_walk_cycles)
        self.cpu_mem = CpuMemorySubsystem(
            "cpu.mem", self.queue, self.cpu_clock, self.cpu_l1d,
            self.cpu_port, self.engine, self._slice_for,
            l1_latency_cycles=cfg.cpu.l1d_latency_cycles,
            forward_enabled=mode.forwarding_enabled)
        cpu_agent.on_back_invalidate = self.cpu_mem.invalidate_l1
        # write-back L1D: flush newer words down before probes read the
        # L2 line and before the L2 array copies an eviction victim
        cpu_agent.on_probe = self.cpu_mem.flush_l1_to_l2
        self.cpu_l2.pre_victim = (
            lambda line_address, _line:
            self.cpu_mem.flush_l1_to_l2(line_address))
        self.cpu_core = CpuCore(
            "cpu.core", self.queue, self.cpu_clock, self.cpu_mmu,
            self.cpu_mem,
            store_buffer_entries=cfg.cpu.store_buffer_entries,
            max_outstanding_drains=cfg.cpu.max_outstanding_drains)

        # --- GPU side ------------------------------------------------------
        slice_size = cfg.gpu.l2_size // cfg.gpu.l2_slices
        self.gpu_l2_slices: List[SetAssociativeCache] = []
        self.slice_ports: Dict[str, CoherentPort] = {}
        for index, slice_name in enumerate(self.slice_names):
            cache = SetAssociativeCache(
                slice_name, slice_size, cfg.gpu.l2_ways, cfg.line_size,
                cfg.gpu.l2_replacement, interleave=cfg.gpu.l2_slices,
                interleave_offset=index)
            self.gpu_l2_slices.append(cache)
            agent = CoherentAgent(
                slice_name, cache, self.gpu_clock,
                cfg.gpu.l2_latency_cycles,
                may_cache=self._slice_predicate(index))
            self.engine.add_agent(agent)
            self.slice_ports[slice_name] = CoherentPort(
                f"{slice_name}.port", slice_name, self.engine, self.queue,
                cfg.gpu.mshrs_per_slice)
        self.gpu_tlb = TLB("gpu.tlb", cfg.gpu.tlb_entries,
                           detector_enabled=False)
        self.gpu_mmu = MMU("gpu.mmu", self.page_table, self.gpu_tlb,
                           walk_cycles=cfg.gpu.tlb_walk_cycles)
        self.prefetcher = None
        if cfg.gpu.prefetch_degree > 0:
            from repro.gpu.prefetch import NextLinePrefetcher
            self.prefetcher = NextLinePrefetcher(
                "gpu.prefetcher", self.engine, self._slice_for,
                degree=cfg.gpu.prefetch_degree)
        self.sms: List[StreamingMultiprocessor] = []
        for index in range(cfg.gpu.num_sms):
            l1 = SetAssociativeCache(
                f"gpu.sm{index}.l1", cfg.gpu.l1_size, cfg.gpu.l1_ways,
                cfg.line_size, cfg.replacement)
            self.sms.append(StreamingMultiprocessor(
                f"gpu.sm{index}", self.queue, self.gpu_clock, l1,
                self.gpu_mmu, self.slice_ports, self._slice_for,
                l1_latency_cycles=cfg.gpu.l1_latency_cycles,
                shmem_latency_cycles=cfg.gpu.shmem_latency_cycles,
                record_loads=record_gpu_loads,
                prefetcher=self.prefetcher))
        self.gpu = GpuDevice("gpu", self.sms)

        # --- the dedicated direct-store network (§III-G) --------------------
        self.ds_network: Optional[DirectStoreNetwork] = None
        if mode.forwarding_enabled:
            self.ds_network = DirectStoreNetwork(
                "dsnet", self.mem_clock, "cpu", self.slice_names,
                latency_cycles=cfg.network.ds_latency_cycles,
                bytes_per_cycle=cfg.network.ds_bytes_per_cycle,
                line_size=cfg.line_size)
            self.engine.attach_direct_network(self.ds_network)

        # --- telemetry ---------------------------------------------------
        # The tracer is process-global; enabling it here lets every
        # component emit through its own TRACER.enabled guard with no
        # per-call plumbing.  The consumer (CLI/test) clears it between
        # runs; the clock is rebound to this system's queue either way.
        if self.telemetry.trace:
            TRACER.configure(capacity=self.telemetry.trace_capacity)
            TRACER.enable()
        if TRACER.enabled:
            queue = self.queue
            TRACER.bind_clock(lambda: queue.current_tick)
        self.sampler: Optional[IntervalSampler] = None
        if self.telemetry.sample_interval > 0:
            self.sampler = IntervalSampler(
                self.telemetry.sample_interval, self._build_probes())
            self.simulator.sampler = self.sampler

        # --- run state --------------------------------------------------
        self._phases: List[object] = []
        self._phase_index = 0
        self._finish_tick = 0
        self._ran = False
        #: (phase_name, start_tick, end_tick) per executed phase
        self.phase_times: List[tuple] = []
        #: per-phase telemetry dicts (name/start/end + counter deltas)
        self.phase_records: List[Dict] = []
        self._phase_counter_base: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------

    def _slice_for(self, line_address: int) -> str:
        # runs once per memory access: one shift and one mask
        return self.slice_names[
            (line_address >> self._line_bits) & self._slice_mask]

    def _slice_predicate(self, index: int):
        line_bits = self._line_bits
        slice_mask = self._slice_mask

        def _may_cache(line_address: int) -> bool:
            return ((line_address >> line_bits) & slice_mask) == index

        return _may_cache

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def _build_probes(self) -> List[Probe]:
        """Counter sources for the interval sampler.

        Delta probes answer "how much happened this epoch" (the Fig. 4/5
        story: forwarded stores land, then first-touch hits replace
        misses); gauges capture occupancies at the sample instant.
        """
        gpu_l2 = self.gpu_l2_slices
        slice_ports = list(self.slice_ports.values())
        probes = [
            Probe("gpu_l2_accesses",
                  lambda: sum(c.accesses for c in gpu_l2)),
            Probe("gpu_l2_misses",
                  lambda: sum(c.misses for c in gpu_l2)),
            Probe("gpu_l2_first_touch_hits",
                  lambda: sum(c.first_touch_hits for c in gpu_l2)),
            Probe("cpu_stores",
                  lambda: self.cpu_mem.stats.counter("stores").value),
            Probe("network_messages",
                  lambda: self.network.total_messages),
            Probe("network_bytes", lambda: self.network.total_bytes),
            Probe("dram_accesses",
                  lambda: (self.dram.stats.counter("reads").value
                           + self.dram.stats.counter("writes").value)),
            Probe("cpu_mshr_occupancy",
                  lambda: len(self.cpu_port.mshrs), mode="gauge"),
            Probe("gpu_mshr_occupancy",
                  lambda: sum(len(port.mshrs) for port in slice_ports),
                  mode="gauge"),
            Probe("store_buffer_occupancy",
                  lambda: len(self.cpu_core.store_buffer), mode="gauge"),
            Probe("event_queue_depth",
                  lambda: len(self.queue), mode="gauge"),
        ]
        if self.ds_network is not None:
            probes.insert(3, Probe(
                "forwarded_stores",
                lambda: self.ds_network.forwarded_stores))
            probes.append(Probe(
                "ds_bytes", lambda: self.ds_network.total_bytes))
        return probes

    def _phase_counters(self) -> Dict[str, float]:
        """The cumulative counters snapshotted at every phase boundary.

        Reads only — always on, cheap (a handful per phase), and with no
        effect on event timing, so phase records exist in every run.
        """
        return {
            "forwarded_stores": (self.ds_network.forwarded_stores
                                 if self.ds_network is not None else 0),
            "gpu_l2_accesses": sum(c.accesses for c in self.gpu_l2_slices),
            "gpu_l2_misses": sum(c.misses for c in self.gpu_l2_slices),
            "gpu_l2_first_touch_hits": sum(
                c.first_touch_hits for c in self.gpu_l2_slices),
            "cpu_stores": self.cpu_mem.stats.counter("stores").value,
            "network_messages": self.network.total_messages,
        }

    def _open_phase_record(self, name: str, start_tick: int) -> None:
        self.phase_records.append(
            {"name": name, "start": start_tick, "end": start_tick})
        self._phase_counter_base = self._phase_counters()

    def _close_phase_record(self, end_tick: int) -> None:
        if not self.phase_records or self._phase_counter_base is None:
            return
        record = self.phase_records[-1]
        record["end"] = end_tick
        current = self._phase_counters()
        for key, value in current.items():
            record[key] = value - self._phase_counter_base[key]
        self._phase_counter_base = None
        if TRACER.enabled:
            TRACER.span("phase", record["name"], record["start"], end_tick,
                        track="phases",
                        args={key: record[key] for key in current})

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def build_context(self) -> BuildContext:
        """The context handed to workload generators."""
        return BuildContext(
            alloc=self._alloc,
            line_size=self.config.line_size,
            num_sms=self.config.gpu.num_sms,
            lanes_per_warp=self.config.gpu.lanes_per_sm,
            alloc_at=self._alloc_at,
        )

    def _alloc(self, name: str, size_bytes: int, gpu_accessed: bool) -> int:
        region = self.dsu.allocate(name, size_bytes, gpu_accessed)
        return region.start

    def _alloc_at(self, name: str, window_address: int,
                  size_bytes: int) -> int:
        region = self.dsu.allocate_at(name, window_address, size_bytes)
        return region.start

    def run(self, workload: Workload) -> RunResult:
        """Execute *workload* to completion and return its metrics.

        The cyclic garbage collector stays off from trace build to
        result collection.  Every component's state is left in place,
        so the system can be inspected afterwards; :meth:`close` frees
        it.
        """
        if self._ran:
            raise RuntimeError(
                "IntegratedSystem instances are single-use; build a fresh "
                "one per run")
        self._ran = True
        with gc_suspended():
            self._phases = workload.build_phases(self.build_context())
            if not self._phases:
                raise ValueError(f"workload {workload!r} built no phases")
            self._phase_index = 0
            self._start_next_phase(0)
            self.simulator.run()
            if self.sampler is not None:
                self.sampler.finalize(self._finish_tick)
            return self._collect(workload)

    def close(self) -> None:
        """Release the per-run state: trace, warps, cache contents.

        Components hold callbacks into each other, so a finished system
        is a reference cycle that only the cyclic collector can free.
        Emptying the large per-run containers here lets refcounting free
        their contents (cache lines, trace ops, warps) at once and
        leaves the collector a small skeleton.  A closed system cannot
        run.
        """
        self._ran = True
        self._phases = []
        self.cpu_core.release()
        for sm in self.sms:
            sm.release()
        for cache in (self.cpu_l1d, self.cpu_l1i, self.cpu_l2,
                      *self.gpu_l2_slices):
            cache.release()
        self.cpu_tlb.flush()
        self.gpu_tlb.flush()

    def _start_next_phase(self, finish_tick: int) -> None:
        self._finish_tick = max(self._finish_tick, finish_tick)
        if self.phase_times:
            name, start, _unset = self.phase_times[-1]
            self.phase_times[-1] = (name, start, finish_tick)
            self._close_phase_record(finish_tick)
        if self._phase_index >= len(self._phases):
            return
        phase = self._phases[self._phase_index]
        self._phase_index += 1
        start_tick = self.queue.current_tick
        if isinstance(phase, CpuPhase):
            self.phase_times.append((phase.name, start_tick, None))
            self._open_phase_record(phase.name, start_tick)
            self.cpu_core.run_phase(phase.ops, self._start_next_phase)
        elif isinstance(phase, KernelLaunch):
            self.phase_times.append((phase.name, start_tick, None))
            self._open_phase_record(phase.name, start_tick)
            self.gpu.launch(phase, self._start_next_phase)
        else:
            raise TypeError(f"unknown phase type {type(phase).__name__}")

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Protocol safety check over the final cache state."""
        self.engine.check_invariants()

    def _collect(self, workload: Workload) -> RunResult:
        stats: Dict[str, float] = {}
        registries = [self.engine.stats, self.network.stats,
                      self.dram.stats, self.cpu_core.stats,
                      self.cpu_mem.stats, self.cpu_mmu.stats,
                      self.cpu_tlb.stats, self.gpu_mmu.stats,
                      self.gpu_tlb.stats, self.dsu.stats]
        caches = [self.cpu_l1d, self.cpu_l2, *self.gpu_l2_slices,
                  *[sm.l1 for sm in self.sms]]
        for registry in registries:
            stats.update(registry.dump())
        for cache in caches:
            stats.update(cache.stats.dump())
        if self.ds_network is not None:
            stats.update(self.ds_network.stats.dump())

        result = RunResult(
            workload=f"{workload.code}/{workload.input_size}",
            mode=self.mode.value,
            total_ticks=self._finish_tick,
            gpu_l2=merge_snapshots(
                *[snapshot_cache(cache) for cache in self.gpu_l2_slices]),
            gpu_l1=merge_snapshots(
                *[snapshot_cache(sm.l1) for sm in self.sms]),
            cpu_l1d=snapshot_cache(self.cpu_l1d),
            cpu_l2=snapshot_cache(self.cpu_l2),
            network_messages=self.network.total_messages,
            network_bytes=self.network.total_bytes,
            ds_messages=(self.ds_network.total_messages
                         if self.ds_network else 0),
            ds_forwarded_stores=(self.ds_network.forwarded_stores
                                 if self.ds_network else 0),
            dram_reads=self.dram.stats.counter("reads").value,
            dram_writes=self.dram.stats.counter("writes").value,
            cpu_loads=self.cpu_mem.stats.counter("loads").value,
            cpu_stores=self.cpu_mem.stats.counter("stores").value,
            events_fired=self.simulator.events_fired,
            stats=stats,
            phases=[dict(record) for record in self.phase_records],
            timeseries=(self.sampler.to_timeseries()
                        if self.sampler is not None else None),
        )
        return result
