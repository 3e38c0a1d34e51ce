"""Unit tests for the core package: config, policy, regions, metrics."""

import pytest

from repro.core.config import SystemConfig
from repro.core.direct_store import DirectStoreUnit, should_home_on_gpu
from repro.core.metrics import (
    CacheSnapshot,
    RunResult,
    merge_snapshots,
)
from repro.core.protocol_mode import CoherenceMode
from repro.core.regions import DirectStoreRegionRegistry
from repro.vm.mmap import MmapAllocator
from repro.vm.pagetable import PAGE_SIZE, PageTable, PhysicalFrameAllocator


class TestCoherenceMode:
    def test_ccsm_disables_everything(self):
        assert not CoherenceMode.CCSM.forwarding_enabled
        assert CoherenceMode.CCSM.broadcast_enabled

    def test_direct_store_keeps_broadcast(self):
        assert CoherenceMode.DIRECT_STORE.forwarding_enabled
        assert CoherenceMode.DIRECT_STORE.broadcast_enabled

    def test_ds_only_removes_broadcast(self):
        assert CoherenceMode.DS_ONLY.forwarding_enabled
        assert not CoherenceMode.DS_ONLY.broadcast_enabled

    def test_hybrid(self):
        assert CoherenceMode.HYBRID.forwarding_enabled
        assert CoherenceMode.HYBRID.broadcast_enabled


class TestHomingPolicy:
    def test_non_gpu_buffers_never_homed(self):
        for mode in CoherenceMode:
            assert not should_home_on_gpu(mode, False, 1 << 20, 64 * 1024)

    def test_ccsm_never_homes(self):
        assert not should_home_on_gpu(CoherenceMode.CCSM, True, 1 << 20,
                                      64 * 1024)

    def test_direct_store_homes_all_kernel_arguments(self):
        assert should_home_on_gpu(CoherenceMode.DIRECT_STORE, True, 16,
                                  64 * 1024)

    def test_hybrid_homes_only_large(self):
        threshold = 64 * 1024
        assert should_home_on_gpu(CoherenceMode.HYBRID, True, threshold,
                                  threshold)
        assert not should_home_on_gpu(CoherenceMode.HYBRID, True,
                                      threshold - 1, threshold)


class TestDirectStoreUnit:
    def make(self, mode):
        table = PageTable(PhysicalFrameAllocator(16 * 1024 * 1024))
        return DirectStoreUnit(mode, MmapAllocator(), table,
                               hybrid_threshold=64 * 1024), table

    def test_homed_buffer_mapped_eagerly(self):
        dsu, table = self.make(CoherenceMode.DIRECT_STORE)
        region = dsu.allocate("buf", 3 * PAGE_SIZE, gpu_accessed=True)
        assert region.direct_store
        assert len(table) == 3
        for offset in range(0, region.length, PAGE_SIZE):
            table.translate(region.start + offset)  # no page fault
        assert dsu.buffers_homed == 1

    def test_physical_predicate(self):
        dsu, table = self.make(CoherenceMode.DIRECT_STORE)
        region = dsu.allocate("buf", PAGE_SIZE, gpu_accessed=True)
        physical = table.translate(region.start)
        assert dsu.is_ds_physical_line(physical)
        heap = dsu.allocate("private", PAGE_SIZE, gpu_accessed=False)
        heap_pa = table.translate_or_map(heap.start)
        assert not dsu.is_ds_physical_line(heap_pa)

    def test_ccsm_allocates_heap(self):
        dsu, _table = self.make(CoherenceMode.CCSM)
        region = dsu.allocate("buf", PAGE_SIZE, gpu_accessed=True)
        assert not region.direct_store


class TestRegionRegistry:
    def test_rejects_heap_regions(self):
        registry = DirectStoreRegionRegistry()
        heap = MmapAllocator().malloc(PAGE_SIZE, "x")
        with pytest.raises(ValueError):
            registry.register(heap, [0])

    def test_membership(self):
        registry = DirectStoreRegionRegistry()
        region = MmapAllocator().mmap_fixed_direct_store(PAGE_SIZE, "w")
        registry.register(region, [5])
        assert registry.is_ds_physical_line(5 * PAGE_SIZE + 128)
        assert not registry.is_ds_physical_line(6 * PAGE_SIZE)
        assert registry.total_bytes == PAGE_SIZE
        assert len(registry) == 1


class TestConfig:
    def test_table1_defaults(self, table1_config):
        cfg = table1_config
        assert cfg.cpu.l1d_size == 64 * 1024 and cfg.cpu.l1d_ways == 2
        assert cfg.cpu.l1i_size == 32 * 1024 and cfg.cpu.l1i_ways == 2
        assert cfg.cpu.l2_size == 2 * 1024 ** 2 and cfg.cpu.l2_ways == 8
        assert cfg.gpu.num_sms == 16 and cfg.gpu.lanes_per_sm == 32
        assert cfg.gpu.frequency_hz == pytest.approx(1.4e9)
        assert cfg.gpu.l1_size == 16 * 1024 and cfg.gpu.l1_ways == 4
        assert cfg.gpu.shared_mem_size == 48 * 1024
        assert cfg.gpu.l2_size == 2 * 1024 ** 2
        assert cfg.gpu.l2_ways == 16 and cfg.gpu.l2_slices == 4
        assert cfg.dram.size_bytes == 2 * 1024 ** 3
        assert cfg.dram.num_channels == 1
        assert cfg.dram.ranks_per_channel == 2
        assert cfg.dram.banks_per_rank == 8
        assert cfg.line_size == 128

    def test_describe_matches_table1_text(self, table1_config):
        text = table1_config.describe()
        assert "64KB, 2 ways" in text
        assert "16 - 32 lanes per SM @ 1.4Ghz" in text
        assert "2MB, 16 ways, 4 slices" in text
        assert "2GB, 1 channel, 2 ranks, 8 banks @ 1GHz" in text


class TestMetrics:
    def test_snapshot_miss_rate(self):
        snap = CacheSnapshot(accesses=10, hits=7, misses=3)
        assert snap.miss_rate == pytest.approx(0.3)
        assert CacheSnapshot().miss_rate == 0.0

    def test_merge(self):
        merged = merge_snapshots(
            CacheSnapshot(accesses=10, misses=2, compulsory_misses=1),
            CacheSnapshot(accesses=30, misses=6, compulsory_misses=2))
        assert merged.accesses == 40
        assert merged.misses == 8
        assert merged.compulsory_misses == 3
        assert merged.miss_rate == pytest.approx(0.2)

    def test_speedup(self):
        slow = RunResult("w", "ccsm", total_ticks=200)
        fast = RunResult("w", "ds", total_ticks=100)
        assert fast.speedup_over(slow) == pytest.approx(2.0)

    def test_speedup_zero_ticks_rejected(self):
        broken = RunResult("w", "ds", total_ticks=0)
        with pytest.raises(ValueError):
            broken.speedup_over(RunResult("w", "ccsm", total_ticks=1))

    def test_summary_renders(self):
        result = RunResult("VA/small", "ccsm", total_ticks=1000)
        assert "VA/small" in result.summary()
