"""System configuration — Table I of the paper, as a dataclass.

Every knob the evaluation sweeps (GPU L2 size, network latency, SM
count, …) lives here so that benchmarks and ablations configure runs
declaratively.  Timing parameters the paper does not list (CPU
frequency, per-level latencies) use values typical of the gem5-gpu era
and are called out in DESIGN.md; since every experiment is a
DS-vs-CCSM *ratio* on the same configuration, their absolute values
shift both sides together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mem.dram import DramConfig


@dataclass
class CpuConfig:
    """Table I, CPU section: 1 core, 64KB/2w L1D, 32KB/2w L1I, 2MB/8w L2."""

    frequency_hz: float = 3.0e9
    l1d_size: int = 64 * 1024
    l1d_ways: int = 2
    l1d_latency_cycles: int = 2
    l1i_size: int = 32 * 1024
    l1i_ways: int = 2
    l2_size: int = 2 * 1024 * 1024
    l2_ways: int = 8
    l2_latency_cycles: int = 12
    store_buffer_entries: int = 64
    max_outstanding_drains: int = 16
    num_mshrs: int = 32
    tlb_entries: int = 64
    tlb_walk_cycles: int = 20


@dataclass
class GpuConfig:
    """Table I, GPU section: 16 SMs @ 1.4 GHz, 16KB/4w L1, 2MB/16w/4-slice L2."""

    num_sms: int = 16
    lanes_per_sm: int = 32
    frequency_hz: float = 1.4e9
    l1_size: int = 16 * 1024
    l1_ways: int = 4
    l1_latency_cycles: int = 28
    shared_mem_size: int = 48 * 1024
    shmem_latency_cycles: int = 2
    l2_size: int = 2 * 1024 * 1024
    l2_ways: int = 16
    l2_slices: int = 4
    l2_latency_cycles: int = 30
    #: GPU L2 replacement: Fermi-class L2s are not true LRU; seeded
    #: random matches their measured behaviour and avoids pathological
    #: frontier-chasing eviction on streaming kernels
    l2_replacement: str = "random"
    mshrs_per_slice: int = 32
    tlb_entries: int = 128
    tlb_walk_cycles: int = 20
    #: next-line prefetch degree into the L2 (0 = off); the pull-based
    #: baseline the paper compares direct store against
    prefetch_degree: int = 0


@dataclass
class NetworkConfig:
    """Coherence crossbar and the dedicated direct-store network.

    The paper specifies the added network has "exactly the same
    characteristics" as the coherence network, so both default to the
    same hop latency and width; the ablation bench sweeps
    ``ds_latency_cycles`` separately.
    """

    hop_latency_cycles: int = 8
    bytes_per_cycle: int = 64
    ds_latency_cycles: int = 8
    ds_bytes_per_cycle: int = 64
    memctrl_latency_cycles: int = 4


@dataclass
class SystemConfig:
    """The full Table I machine plus simulation options."""

    cpu: CpuConfig = field(default_factory=CpuConfig)
    gpu: GpuConfig = field(default_factory=GpuConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    line_size: int = 128
    #: carry data payloads end to end (the correctness oracle); turn off
    #: for large benchmark sweeps
    track_values: bool = True
    #: HYBRID mode: GPU-accessed buffers at least this large are homed
    #: on the GPU (§III-H suggests homing "large variables")
    hybrid_threshold_bytes: int = 64 * 1024
    #: replacement policy for every cache
    replacement: str = "lru"
    #: safety net for runaway simulations
    max_events: int = 200_000_000

    def describe(self) -> str:
        """Human-readable configuration dump (the Table I bench prints it)."""
        gpu, cpu = self.gpu, self.cpu
        lines = [
            "CPU",
            "  Cores      1",
            f"  L1D cache  {cpu.l1d_size // 1024}KB, {cpu.l1d_ways} ways",
            f"  L1I cache  {cpu.l1i_size // 1024}KB, {cpu.l1i_ways} ways",
            f"  L2 cache   {cpu.l2_size // (1024 * 1024)}MB, {cpu.l2_ways} ways",
            "GPU",
            f"  SMs        {gpu.num_sms} - {gpu.lanes_per_sm} lanes per SM "
            f"@ {gpu.frequency_hz / 1e9:.1f}Ghz",
            f"  L1 cache   {gpu.l1_size // 1024}KB + "
            f"{gpu.shared_mem_size // 1024}KB shared memory, {gpu.l1_ways} ways",
            f"  L2 cache   {gpu.l2_size // (1024 * 1024)}MB, {gpu.l2_ways} ways, "
            f"{gpu.l2_slices} slices",
            "MEMORY",
            f"  Memory     {self.dram.size_bytes // 1024 ** 3}GB, "
            f"{self.dram.num_channels} channel, "
            f"{self.dram.ranks_per_channel} ranks, "
            f"{self.dram.banks_per_rank} banks @ "
            f"{self.dram.frequency_hz / 1e9:.0f}GHz",
            f"  Line size  {self.line_size} bytes",
        ]
        return "\n".join(lines)
