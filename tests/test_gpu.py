"""Tests for the GPU: coalescer, SM scheduling, device, L1 semantics."""

import pytest

from repro.core.protocol_mode import CoherenceMode
from repro.core.system import IntegratedSystem
from repro.gpu.coalescer import Coalescer
from repro.workloads.base import Workload
from repro.workloads.trace import (
    CpuOp,
    CpuPhase,
    KernelLaunch,
    WarpOp,
    WarpProgram,
)


class TestCoalescer:
    def test_fully_coalesced(self):
        coalescer = Coalescer("c", 128)
        addresses = [0x1000 + lane * 4 for lane in range(32)]
        assert coalescer.coalesce(addresses) == [0x1000]

    def test_divergent(self):
        coalescer = Coalescer("c", 128)
        addresses = [lane * 128 for lane in range(32)]
        assert len(coalescer.coalesce(addresses)) == 32

    def test_strided_two_lines(self):
        coalescer = Coalescer("c", 128)
        addresses = [0x1000 + lane * 8 for lane in range(32)]  # 256 bytes
        assert coalescer.coalesce(addresses) == [0x1000, 0x1080]

    def test_order_preserved(self):
        coalescer = Coalescer("c", 128)
        assert coalescer.coalesce([0x2000, 0x1000]) == [0x2000, 0x1000]

    def test_empty(self):
        assert Coalescer("c").coalesce([]) == []

    def test_fanout_statistic(self):
        coalescer = Coalescer("c", 128)
        coalescer.coalesce([0, 128])
        coalescer.coalesce([0])
        assert coalescer.stats.counter("instructions").value == 2
        assert coalescer.stats.counter("transactions").value == 3


class _KernelWorkload(Workload):
    """One produce phase + one kernel from caller-supplied warps."""

    code = "XX"
    name = "kernel-test"

    def __init__(self, warp_builder, produce_words=0):
        super().__init__("small")
        self._warp_builder = warp_builder
        self._produce_words = produce_words
        self.base = None

    def build(self, ctx):
        self.base = ctx.alloc("buf", 256 * 1024, True)
        phases = []
        if self._produce_words:
            phases.append(CpuPhase("p", [
                CpuOp.store(self.base + i * 32, i)
                for i in range(self._produce_words)]))
        phases.append(KernelLaunch("k", self._warp_builder(self.base)))
        return phases


def run_kernel(config, mode, warp_builder, produce_words=0,
               record=False):
    system = IntegratedSystem(config, mode, record_gpu_loads=record)
    workload = _KernelWorkload(warp_builder, produce_words)
    result = system.run(workload)
    return system, workload, result


class TestSMExecution:
    def test_kernel_completes(self, tiny_config):
        def warps(base):
            return [WarpProgram([WarpOp.load([base + lane * 4
                                              for lane in range(32)])])]

        _s, _w, result = run_kernel(tiny_config, CoherenceMode.CCSM, warps)
        assert result.total_ticks > 0
        assert result.gpu_l1.accesses == 1

    def test_compute_only_kernel(self, tiny_config):
        def warps(base):
            return [WarpProgram([WarpOp.compute(100)])]

        _s, _w, result = run_kernel(tiny_config, CoherenceMode.CCSM, warps)
        assert result.gpu_l2.accesses == 0

    def test_shmem_ops_bypass_caches(self, tiny_config):
        def warps(base):
            return [WarpProgram([WarpOp.shmem(50)])]

        _s, _w, result = run_kernel(tiny_config, CoherenceMode.CCSM, warps)
        assert result.gpu_l1.accesses == 0
        assert result.gpu_l2.accesses == 0

    def test_latency_hiding_with_more_warps(self, tiny_config):
        """Adding independent warps must not scale time linearly."""
        def one_warp(base):
            return [WarpProgram([
                WarpOp.load([base + line * 128 + lane * 4
                             for lane in range(32)])
                for line in range(32)])]

        def four_warps(base):
            return [WarpProgram([
                WarpOp.load([base + (warp * 32 + line) * 128 + lane * 4
                             for lane in range(32)])
                for line in range(32)])
                for warp in range(4)]

        _s1, _w1, single = run_kernel(tiny_config, CoherenceMode.CCSM,
                                      one_warp)
        _s2, _w2, quad = run_kernel(tiny_config, CoherenceMode.CCSM,
                                    four_warps)
        # 4x the work in well under 4x the time (warps overlap misses)
        assert quad.total_ticks < 3 * single.total_ticks

    def test_warp_blocks_on_load(self, tiny_config):
        """A dependent chain in one warp serializes."""
        def warps(base):
            ops = [WarpOp.load([base + line * 128]) for line in range(16)]
            return [WarpProgram(ops)]

        _s, _w, result = run_kernel(tiny_config, CoherenceMode.CCSM, warps)
        assert result.gpu_l2.accesses == 16

    def test_empty_kernel_finishes(self, tiny_config):
        _s, _w, result = run_kernel(tiny_config, CoherenceMode.CCSM,
                                    lambda base: [WarpProgram([])])
        assert result.total_ticks >= 0


class TestGpuL1Semantics:
    def test_l1_hit_on_reuse(self, tiny_config):
        def warps(base):
            line = [base + lane * 4 for lane in range(32)]
            return [WarpProgram([WarpOp.load(line), WarpOp.load(line)])]

        _s, _w, result = run_kernel(tiny_config, CoherenceMode.CCSM, warps)
        assert result.gpu_l1.hits == 1
        assert result.gpu_l2.accesses == 1

    def test_flash_invalidate_between_kernels(self, tiny_config):
        class _TwoKernels(Workload):
            code = "XX"
            name = "two"

            def build(self, ctx):
                base = ctx.alloc("buf", 4096, True)
                line = [base + lane * 4 for lane in range(32)]
                first = KernelLaunch("k1", [WarpProgram([
                    WarpOp.load(line)])])
                second = KernelLaunch("k2", [WarpProgram([
                    WarpOp.load(line)])])
                return [first, second]

        system = IntegratedSystem(tiny_config, CoherenceMode.CCSM)
        result = system.run(_TwoKernels("small"))
        # the second kernel's load misses L1 (flash invalidated) but
        # hits the L2
        assert result.gpu_l1.misses == 2
        assert result.gpu_l2.hits == 1

    def test_stores_write_through(self, tiny_config):
        def warps(base):
            line = [base + lane * 4 for lane in range(32)]
            return [WarpProgram([WarpOp.store(line, 5)])]

        system, workload, result = run_kernel(
            tiny_config, CoherenceMode.CCSM, warps)
        assert result.gpu_l2.accesses == 1  # the write-through
        pa = system.page_table.translate(workload.base)
        slice_name = system._slice_for(pa)
        line = system.engine.agents[slice_name].cache.probe(pa)
        assert line is not None and line.dirty

    def test_gpu_reads_cpu_produced_values(self, tiny_config):
        def warps(base):
            return [WarpProgram([
                WarpOp.load([base + lane * 4 for lane in range(32)])])]

        system, workload, _result = run_kernel(
            tiny_config, CoherenceMode.DIRECT_STORE, warps,
            produce_words=4, record=True)
        observed = {addr: value
                    for addr, value in system.sms[0].loaded_values}
        assert observed[workload.base] == 0
        assert observed[workload.base + 32] == 1


class TestGpuDevice:
    def test_warps_distributed_round_robin(self, tiny_config):
        def warps(base):
            return [WarpProgram([WarpOp.compute(1)]) for _ in range(8)]

        system, _w, _r = run_kernel(tiny_config, CoherenceMode.CCSM, warps)
        # tiny config has 4 SMs; 8 warps -> 2 per SM
        for sm in system.sms:
            assert sm.stats.counter("warp_ops_issued").value == 2

    def test_double_launch_rejected(self, tiny_config):
        system = IntegratedSystem(tiny_config, CoherenceMode.CCSM)
        kernel = KernelLaunch("k", [WarpProgram([WarpOp.compute(1)])])
        system.gpu.launch(kernel, lambda tick: None)
        with pytest.raises(RuntimeError):
            system.gpu.launch(kernel, lambda tick: None)
