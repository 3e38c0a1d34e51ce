"""Edge-case tests for the GPU: scheduler fairness, stores, recording."""

import pytest

from repro.core.protocol_mode import CoherenceMode
from repro.core.system import IntegratedSystem
from repro.telemetry import TRACER, TelemetrySettings
from repro.workloads.base import Workload
from repro.workloads.trace import (
    KernelLaunch,
    WarpOp,
    WarpProgram,
)


class _Kernel(Workload):
    code = "XX"
    name = "kernel"

    def __init__(self, warps_builder):
        super().__init__("small")
        self._warps_builder = warps_builder
        self.base = None

    def build(self, ctx):
        self.base = ctx.alloc("buf", 512 * 1024, True)
        return [KernelLaunch("k", self._warps_builder(self.base))]


def run(config, warps_builder, record=False, telemetry=None):
    system = IntegratedSystem(config, CoherenceMode.CCSM,
                              record_gpu_loads=record, telemetry=telemetry)
    workload = _Kernel(warps_builder)
    return system, system.run(workload), workload


class TestSchedulerFairness:
    def test_unbalanced_warps_all_finish(self, tiny_config):
        def warps(base):
            long_warp = WarpProgram([WarpOp.compute(5)
                                     for _ in range(100)])
            short = WarpProgram([WarpOp.compute(1)])
            return [long_warp, short, short, short]

        _system, result, _w = run(tiny_config, warps)
        assert result.total_ticks > 0

    def test_blocked_warp_does_not_starve_others(self, tiny_config):
        """One warp chases dependent misses; others are compute-only.
        The kernel must take ~the blocked warp's serial time, not the
        sum of everyone's."""
        def warps(base):
            chaser = WarpProgram([WarpOp.load([base + line * 128])
                                  for line in range(32)])
            spinners = [WarpProgram([WarpOp.compute(2)
                                     for _ in range(64)])
                        for _ in range(3)]
            return [chaser] + spinners

        system, result, _w = run(tiny_config, warps)
        # the chaser missed 32 times; its serial latency dominates
        assert result.gpu_l2.accesses == 32

    def test_mixed_ops_single_warp(self, tiny_config):
        def warps(base):
            ops = [WarpOp.load([base]), WarpOp.compute(10),
                   WarpOp.shmem(5),
                   WarpOp.store([base + 128], 7), WarpOp.compute(1)]
            return [WarpProgram(ops)]

        system, result, _w = run(tiny_config, warps)
        assert result.gpu_l1.accesses == 1   # the load
        assert result.gpu_l2.accesses == 2   # load miss + store


class TestStoreSemantics:
    def test_kernel_waits_for_outstanding_stores(self, tiny_config):
        """Fire-and-forget stores must still complete before the kernel
        reports done (the device drains them)."""
        def warps(base):
            return [WarpProgram([
                WarpOp.store([base + line * 128], line)
                for line in range(16)])]

        system, result, workload = run(tiny_config, warps)
        # every stored line is dirty at its slice when the kernel ends
        for line in range(16):
            pa = system.page_table.translate(workload.base + line * 128)
            slice_line = system.engine.agents[
                system._slice_for(pa)].cache.probe(pa)
            assert slice_line is not None and slice_line.dirty

    def test_store_does_not_allocate_l1(self, tiny_config):
        def warps(base):
            return [WarpProgram([WarpOp.store([base], 1)])]

        system, _result, workload = run(tiny_config, warps)
        pa = system.page_table.translate(workload.base)
        assert all(sm.l1.probe(pa) is None for sm in system.sms)


class TestLoadRecording:
    def test_l1_hit_values_recorded(self, tiny_config):
        def warps(base):
            line = [base + lane * 4 for lane in range(32)]
            return [WarpProgram([WarpOp.load(line), WarpOp.load(line)])]

        system, _result, workload = run(tiny_config, warps, record=True)
        values = [v for _a, v in system.sms[0].loaded_values]
        assert len(values) == 64  # both passes recorded, hit and miss

    def test_recording_off_by_default(self, tiny_config):
        def warps(base):
            return [WarpProgram([WarpOp.load([base])])]

        system, _result, _w = run(tiny_config, warps)
        assert system.sms[0].loaded_values == []


class TestEmptyMemoryOps:
    """A memory op with no lanes issues no line and counts nothing,
    traced or not (as ``Coalescer.coalesce_op`` treats it)."""

    @pytest.mark.parametrize("empty", ["load", "store"])
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    def test_empty_op_issues_nothing(self, tiny_config, empty, traced):
        def warps(base):
            op = WarpOp.load([]) if empty == "load" \
                else WarpOp.store([], 1)
            return [WarpProgram([WarpOp.load([base]), op,
                                 WarpOp.compute(1)])]

        telemetry = TelemetrySettings(trace=traced)
        try:
            system, result, _w = run(tiny_config, warps,
                                     telemetry=telemetry)
        finally:
            TRACER.disable()
            TRACER.clear()
        stats = system.sms[0].coalescer.stats
        assert stats.counter("instructions").value == 1
        assert stats.counter("transactions").value == 1
        assert result.gpu_l1.accesses == 1
        assert result.gpu_l2.accesses == 1
