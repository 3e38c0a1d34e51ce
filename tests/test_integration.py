"""Integration tests: the whole system, end to end, under every mode."""

import dataclasses

import pytest

from repro.core.protocol_mode import CoherenceMode
from repro.core.system import IntegratedSystem
from repro.workloads.base import Workload
from repro.workloads.trace import (
    CpuOp,
    CpuPhase,
    KernelLaunch,
    WarpOp,
    WarpProgram,
)

ALL_MODES = [CoherenceMode.CCSM, CoherenceMode.DIRECT_STORE,
             CoherenceMode.DS_ONLY, CoherenceMode.HYBRID]


class ProducerConsumer(Workload):
    """CPU writes a buffer; every GPU warp reads a distinct stripe."""

    code = "XX"
    name = "producer-consumer"

    def __init__(self, nbytes=16 * 1024, warps=8):
        super().__init__("small")
        self.nbytes = nbytes
        self.warps = warps
        self.base = None

    def build(self, ctx):
        self.base = ctx.alloc("shared", self.nbytes, True)
        produce = CpuPhase("produce", [
            CpuOp.store(self.base + offset, offset)
            for offset in range(0, self.nbytes, 32)])
        lines = self.nbytes // ctx.line_size
        programs = [WarpProgram() for _ in range(self.warps)]
        for index in range(lines):
            line_base = self.base + index * ctx.line_size
            programs[index % self.warps].ops.append(
                WarpOp.load([line_base + lane * 4 for lane in range(32)]))
        return [produce, KernelLaunch("consume", programs)]


class RoundTrip(Workload):
    """CPU produces, GPU transforms into an output, CPU reads it back."""

    code = "XX"
    name = "round-trip"

    def build(self, ctx):
        self.src = ctx.alloc("src", 4096, True)
        self.dst = ctx.alloc("dst", 4096, True)
        produce = CpuPhase("produce", [
            CpuOp.store(self.src + offset, 100 + offset)
            for offset in range(0, 4096, 32)])
        warp = WarpProgram()
        for index in range(4096 // ctx.line_size):
            read = [self.src + index * 128 + lane * 4 for lane in range(32)]
            write = [self.dst + index * 128 + lane * 4
                     for lane in range(32)]
            warp.ops.append(WarpOp.load(read))
            warp.ops.append(WarpOp.store(write, 555))
        consume = CpuPhase("consume", [
            CpuOp.load(self.dst + offset)
            for offset in range(0, 4096, 128)])
        return [produce, KernelLaunch("transform", [warp]), consume]


@pytest.mark.parametrize("mode", ALL_MODES)
class TestEveryMode:
    def test_runs_to_completion_and_stays_coherent(self, tiny_config, mode):
        system = IntegratedSystem(tiny_config, mode)
        result = system.run(ProducerConsumer())
        assert result.total_ticks > 0
        system.check_invariants()

    def test_gpu_observes_every_cpu_value(self, tiny_config, mode):
        system = IntegratedSystem(tiny_config, mode, record_gpu_loads=True)
        workload = ProducerConsumer(nbytes=8 * 1024)
        system.run(workload)
        observed = {}
        for sm in system.sms:
            observed.update(dict(sm.loaded_values))
        # the CPU stored `offset` at every 32-byte boundary
        for offset in range(0, workload.nbytes, 32):
            address = workload.base + offset
            assert observed[address] == offset, hex(address)

    def test_round_trip_values(self, tiny_config, mode):
        system = IntegratedSystem(tiny_config, mode)
        workload = RoundTrip("small")
        system.run(workload)
        # the GPU's output is architecturally visible everywhere
        pa = system.page_table.translate(workload.dst)
        slice_line = system.engine.agents[
            system._slice_for(pa)].cache.probe(pa)
        value = None
        if slice_line is not None and slice_line.data:
            value = slice_line.data.get(0)
        if value is None and system.image is not None:
            value = system.image.read_word(pa)
        # it may also have been pulled into the CPU side by the consume
        if value is None:
            cpu_line = system.cpu_l2.probe(pa)
            value = cpu_line.data.get(0) if cpu_line else None
        assert value == 555
        system.check_invariants()


class TestModeContrasts:
    def test_direct_store_reduces_gpu_l2_misses(self, tiny_config):
        results = {}
        for mode in (CoherenceMode.CCSM, CoherenceMode.DIRECT_STORE):
            system = IntegratedSystem(tiny_config, mode)
            results[mode] = system.run(ProducerConsumer())
        assert (results[CoherenceMode.DIRECT_STORE].gpu_l2.misses
                < results[CoherenceMode.CCSM].gpu_l2.misses)

    def test_direct_store_reduces_compulsory_misses(self, tiny_config):
        results = {}
        for mode in (CoherenceMode.CCSM, CoherenceMode.DIRECT_STORE):
            system = IntegratedSystem(tiny_config, mode)
            results[mode] = system.run(ProducerConsumer())
        assert (results[CoherenceMode.DIRECT_STORE].gpu_l2.compulsory_misses
                < results[CoherenceMode.CCSM].gpu_l2.compulsory_misses)

    def test_direct_store_never_slower_on_producer_consumer(
            self, tiny_config):
        results = {}
        for mode in (CoherenceMode.CCSM, CoherenceMode.DIRECT_STORE):
            system = IntegratedSystem(tiny_config, mode)
            results[mode] = system.run(ProducerConsumer())
        speedup = results[CoherenceMode.DIRECT_STORE].speedup_over(
            results[CoherenceMode.CCSM])
        assert speedup >= 1.0

    def test_ds_only_sends_fewer_coherence_messages(self, tiny_config):
        results = {}
        for mode in (CoherenceMode.CCSM, CoherenceMode.DS_ONLY):
            system = IntegratedSystem(tiny_config, mode)
            results[mode] = system.run(ProducerConsumer())
        assert (results[CoherenceMode.DS_ONLY].network_messages
                < results[CoherenceMode.CCSM].network_messages)

    def test_hybrid_homes_only_large_buffers(self, tiny_config):
        class TwoBuffers(Workload):
            code = "XX"
            name = "two-buffers"

            def build(self, ctx):
                self.small = ctx.alloc("small_buf", 4 * 1024, True)
                self.large = ctx.alloc("large_buf", 128 * 1024, True)
                return [CpuPhase("p", [CpuOp.store(self.small, 1),
                                       CpuOp.store(self.large, 2)])]

        config = dataclasses.replace(tiny_config,
                                     hybrid_threshold_bytes=64 * 1024)
        system = IntegratedSystem(config, CoherenceMode.HYBRID)
        workload = TwoBuffers("small")
        system.run(workload)
        assert not system.allocator.in_direct_store_window(workload.small)
        assert system.allocator.in_direct_store_window(workload.large)

    def test_forwarded_store_count_matches_produce(self, tiny_config):
        system = IntegratedSystem(tiny_config, CoherenceMode.DIRECT_STORE)
        workload = ProducerConsumer(nbytes=8 * 1024)
        result = system.run(workload)
        assert result.ds_forwarded_stores == 8 * 1024 // 32


class TestSystemLifecycle:
    def test_single_use(self, tiny_config):
        system = IntegratedSystem(tiny_config, CoherenceMode.CCSM)
        system.run(ProducerConsumer())
        with pytest.raises(RuntimeError):
            system.run(ProducerConsumer())

    def test_empty_workload_rejected(self, tiny_config):
        class Empty(Workload):
            code = "XX"
            name = "empty"

            def build(self, ctx):
                return []

        system = IntegratedSystem(tiny_config, CoherenceMode.CCSM)
        with pytest.raises(ValueError):
            system.run(Empty("small"))

    def test_phase_times_recorded(self, tiny_config):
        system = IntegratedSystem(tiny_config, CoherenceMode.CCSM)
        system.run(ProducerConsumer())
        assert len(system.phase_times) == 2
        for name, start, end in system.phase_times:
            assert end >= start

    def test_determinism(self, tiny_config):
        ticks = []
        for _ in range(2):
            system = IntegratedSystem(tiny_config,
                                      CoherenceMode.DIRECT_STORE)
            ticks.append(system.run(ProducerConsumer()).total_ticks)
        assert ticks[0] == ticks[1]

    def test_stats_dump_contains_components(self, tiny_config):
        system = IntegratedSystem(tiny_config, CoherenceMode.DIRECT_STORE)
        result = system.run(ProducerConsumer())
        assert "hammer.remote_stores" in result.stats
        assert "cpu.l1d.accesses" in result.stats
        assert any(key.startswith("gpu.l2.slice0") for key in result.stats)
