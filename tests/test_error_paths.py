"""Error-path and boundary tests across the stack."""

import pytest

from repro.core.protocol_mode import CoherenceMode
from repro.core.system import IntegratedSystem
from repro.vm.mmap import (
    DIRECT_STORE_WINDOW_SIZE,
    MmapAllocator,
    MmapError,
)
from repro.workloads.base import Workload
from repro.workloads.trace import CpuOp, CpuPhase


class TestWindowExhaustion:
    def test_window_overflow_rejected(self):
        allocator = MmapAllocator()
        allocator.mmap_fixed_direct_store(DIRECT_STORE_WINDOW_SIZE - 4096,
                                          "huge")
        with pytest.raises(MmapError):
            allocator.mmap_fixed_direct_store(2 * 4096, "one-too-many")

    def test_oversized_single_allocation_rejected(self):
        with pytest.raises(MmapError):
            MmapAllocator().mmap_fixed_direct_store(
                DIRECT_STORE_WINDOW_SIZE + 1)


class TestAllocationThroughSystem:
    def test_duplicate_buffer_names_allowed_with_distinct_spans(
            self, tiny_config):
        """Region names are labels, not keys — two anonymous buffers
        must not collide in address space."""
        system = IntegratedSystem(tiny_config, CoherenceMode.DIRECT_STORE)
        first = system.dsu.allocate("buf", 4096, True)
        second = system.dsu.allocate("buf", 4096, True)
        assert not first.overlaps(second)

    def test_unaligned_sizes_rounded_up(self, tiny_config):
        system = IntegratedSystem(tiny_config, CoherenceMode.DIRECT_STORE)
        region = system.dsu.allocate("odd", 100, True)
        assert region.length == 4096


class TestTrailingState:
    def test_tlb_flush_mid_run_is_safe(self, tiny_config):
        class FlushingWorkload(Workload):
            code = "XX"
            name = "flush"

            def __init__(self, system):
                super().__init__("small")
                self._system = system

            def build(self, ctx):
                base = ctx.alloc("buf", 8 * 1024, False)
                ops = [CpuOp.store(base + i * 32, i) for i in range(64)]
                # flush between building and running is the worst case a
                # context switch could do
                self._system.cpu_tlb.flush()
                ops += [CpuOp.load(base + i * 128) for i in range(8)]
                return [CpuPhase("p", ops)]

        system = IntegratedSystem(tiny_config, CoherenceMode.CCSM)
        result = system.run(FlushingWorkload(system))
        assert result.total_ticks > 0
        system.check_invariants()


class TestConfigValidation:
    def test_indivisible_gpu_l2_rejected(self, tiny_config):
        config = tiny_config
        config.gpu.l2_size = 100_000  # not divisible by ways*line
        with pytest.raises(ValueError):
            IntegratedSystem(config, CoherenceMode.CCSM)

    def test_zero_sms_rejected(self, tiny_config):
        config = tiny_config
        config.gpu.num_sms = 0
        with pytest.raises(ValueError):
            IntegratedSystem(config, CoherenceMode.CCSM)
