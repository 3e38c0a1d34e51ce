"""Tests for the CPU core and memory subsystem."""

import pytest

from repro.core.protocol_mode import CoherenceMode
from repro.core.system import IntegratedSystem
from repro.workloads.base import Workload
from repro.workloads.trace import CpuOp, CpuPhase


class _CpuOnlyWorkload(Workload):
    """A workload consisting of a single CPU phase built from raw ops."""

    code = "XX"
    name = "cpu-only"

    def __init__(self, ops_builder):
        super().__init__("small")
        self._ops_builder = ops_builder
        self.buffers = {}

    def build(self, ctx):
        self.buffers["heap"] = ctx.alloc("heap", 64 * 1024, False)
        self.buffers["shared"] = ctx.alloc("shared", 64 * 1024, True)
        return [CpuPhase("ops", self._ops_builder(self.buffers))]


def run_cpu_ops(tiny_config, mode, ops_builder):
    system = IntegratedSystem(tiny_config, mode)
    workload = _CpuOnlyWorkload(ops_builder)
    result = system.run(workload)
    return system, workload, result


class TestComputeAndLoads:
    def test_compute_advances_time(self, tiny_config):
        _s, _w, fast = run_cpu_ops(tiny_config, CoherenceMode.CCSM,
                                   lambda b: [CpuOp.compute(10)])
        _s2, _w2, slow = run_cpu_ops(tiny_config, CoherenceMode.CCSM,
                                     lambda b: [CpuOp.compute(10_000)])
        assert slow.total_ticks > fast.total_ticks

    def test_load_returns_stored_value_through_caches(self, tiny_config):
        def ops(buffers):
            base = buffers["heap"]
            return [CpuOp.store(base, 42), CpuOp.load(base)]

        system, _w, _r = run_cpu_ops(tiny_config, CoherenceMode.CCSM, ops)
        system.check_invariants()

    def test_loads_hit_l1_after_fill(self, tiny_config):
        def ops(buffers):
            base = buffers["heap"]
            return [CpuOp.load(base), CpuOp.load(base), CpuOp.load(base)]

        system, _w, _r = run_cpu_ops(tiny_config, CoherenceMode.CCSM, ops)
        assert system.cpu_l1d.hits >= 2


class TestStoreBuffer:
    def test_stores_drain_completely(self, tiny_config):
        def ops(buffers):
            base = buffers["heap"]
            return [CpuOp.store(base + i * 32, i) for i in range(100)]

        system, workload, _r = run_cpu_ops(tiny_config,
                                           CoherenceMode.CCSM, ops)
        assert not system.cpu_core.store_buffer
        # every value is architecturally visible
        base = workload.buffers["heap"]
        pa = system.page_table.translate(base + 99 * 32)
        line = system.cpu_l2.probe(pa)
        l1 = system.cpu_l1d.probe(pa)
        word = (pa % 128) // 4
        values = [c.data.get(word) for c in (line,) if c and c.data]
        values += [c.data.get(word) for c in (l1,) if c and c.data]
        assert 99 in values

    def test_write_combining_reduces_transactions(self, tiny_config):
        def ops(buffers):
            base = buffers["heap"]
            return [CpuOp.store(base + i * 32, i) for i in range(64)]

        system, _w, _r = run_cpu_ops(tiny_config, CoherenceMode.CCSM, ops)
        # 64 stores over 16 lines: far fewer than 64 L2 transactions
        assert system.cpu_l2.accesses < 64

    def test_store_to_load_forwarding(self, tiny_config):
        """A load of a still-buffered store is served by the store
        buffer, with or without a tracked value.  40 stores to distinct
        lines back the 16-entry buffer up behind its 4 drain slots, so
        the last one is still buffered when the load of its address
        issues; a forwarded load records no load-latency sample."""
        for value in (7, None):
            def ops(buffers, value=value):
                base = buffers["heap"]
                stores = [CpuOp.store(base + i * 128, value)
                          for i in range(40)]
                return stores + [CpuOp.load(base + 39 * 128)]

            system, _w, _r = run_cpu_ops(tiny_config, CoherenceMode.CCSM,
                                         ops)
            stats = system.cpu_core.stats.dump()
            assert stats["cpu.core.ops_executed"] == 41.0
            assert stats["cpu.core.store_buffer_stall_events"] > 0, value
            assert stats["cpu.core.load_latency_ticks.samples"] == 0.0, \
                value
            system.check_invariants()

    def test_stores_drain_in_program_order(self, tiny_config):
        """The store buffer is a FIFO: 40 stores to distinct lines fill
        it behind its drain slots, and they still reach the memory
        system in program order."""
        system = IntegratedSystem(tiny_config, CoherenceMode.CCSM)
        core = system.cpu_core
        drained = []
        memory_store = core._memory_store

        def recording_store(translation, *args):
            drained.append(translation.virtual_address)
            memory_store(translation, *args)

        core._memory_store = recording_store
        workload = _CpuOnlyWorkload(lambda buffers: [
            CpuOp.store(buffers["heap"] + i * 128, i) for i in range(40)])
        system.run(workload)
        base = workload.buffers["heap"]
        assert drained == [base + i * 128 for i in range(40)]
        assert core.stats.counter("store_buffer_stall_events").value > 0

    def test_buffered_store_forwards(self, tiny_config):
        core = IntegratedSystem(tiny_config, CoherenceMode.CCSM).cpu_core
        core.store_buffer.append((0x10, 1))
        core.store_buffer.append((0x10, 2))
        assert core.forwards(0x10)
        assert not core.forwards(0x20)

    def test_valueless_store_still_forwards(self, tiny_config):
        core = IntegratedSystem(tiny_config, CoherenceMode.CCSM).cpu_core
        core.store_buffer.append((0x10, None))
        assert core.forwards(0x10)


class TestDirectStoreRouting:
    def test_window_stores_forward(self, tiny_config):
        def ops(buffers):
            base = buffers["shared"]
            return [CpuOp.store(base + i * 32, i) for i in range(32)]

        system, _w, _r = run_cpu_ops(tiny_config,
                                     CoherenceMode.DIRECT_STORE, ops)
        assert system.ds_network.forwarded_stores > 0
        # the CPU never caches window data
        assert all(not system.dsu.is_ds_physical_line(addr)
                   for addr, _line in system.cpu_l2.resident_lines())

    def test_heap_stores_not_forwarded(self, tiny_config):
        def ops(buffers):
            base = buffers["heap"]
            return [CpuOp.store(base + i * 32, i) for i in range(32)]

        system, _w, _r = run_cpu_ops(tiny_config,
                                     CoherenceMode.DIRECT_STORE, ops)
        assert system.ds_network.forwarded_stores == 0

    def test_ccsm_mode_never_forwards(self, tiny_config):
        def ops(buffers):
            base = buffers["shared"]
            return [CpuOp.store(base + i * 32, i) for i in range(32)]

        system, _w, _r = run_cpu_ops(tiny_config, CoherenceMode.CCSM, ops)
        assert system.ds_network is None

    def test_window_load_does_not_allocate_on_cpu(self, tiny_config):
        def ops(buffers):
            base = buffers["shared"]
            return [CpuOp.store(base, 7), CpuOp.load(base)]

        system, workload, _r = run_cpu_ops(
            tiny_config, CoherenceMode.DIRECT_STORE, ops)
        pa = system.page_table.translate(workload.buffers["shared"])
        assert system.cpu_l2.probe(pa) is None
        assert system.cpu_l1d.probe(pa) is None
        assert system.cpu_mem.stats.counter("uncached_loads").value >= 1


class TestWritebackL1:
    def test_dirty_l1_data_visible_to_gpu(self, tiny_config):
        """The flush-on-probe hook: newest CPU data reaches a GPU reader
        even while it only lives dirty in the CPU L1."""
        from repro.workloads.trace import KernelLaunch, WarpProgram, WarpOp

        class _ProduceConsume(Workload):
            code = "XX"
            name = "wb"

            def build(self, ctx):
                self.base = ctx.alloc("buf", 4096, True)
                produce = CpuPhase("p", [
                    CpuOp.store(self.base, 11),
                    CpuOp.store(self.base, 22),   # second store hits L1
                ])
                warp = WarpProgram([WarpOp.load([self.base])])
                return [produce, KernelLaunch("k", [warp])]

        system = IntegratedSystem(tiny_config, CoherenceMode.CCSM,
                                  record_gpu_loads=True)
        workload = _ProduceConsume("small")
        system.run(workload)
        loads = [value for _addr, value in system.sms[0].loaded_values]
        assert loads == [22]
        system.check_invariants()

    # The two tests below pin known gaps of the write-back L1D (see
    # ROADMAP).  Closing them adds upgrades and writebacks, which moves
    # the ticks and statistics of the committed suite record.

    @pytest.mark.xfail(strict=True, reason="a store that hits the L1D "
                       "retires there even when the L2 holds the line "
                       "in O or S, so other copies are not invalidated")
    def test_store_hit_on_shared_line_upgrades(self, tiny_config):
        from repro.workloads.trace import KernelLaunch, WarpOp, WarpProgram

        class _ShareThenStore(Workload):
            code = "XX"
            name = "share"

            def build(self, ctx):
                self.base = ctx.alloc("buf", 4096, False)
                return [CpuPhase("p1", [CpuOp.store(self.base, 1)]),
                        KernelLaunch("k", [WarpProgram(
                            [WarpOp.load([self.base])])]),
                        CpuPhase("p2", [CpuOp.store(self.base, 2)])]

        system = IntegratedSystem(tiny_config, CoherenceMode.CCSM)
        workload = _ShareThenStore("small")
        system.run(workload)
        pa = system.page_table.translate(workload.base)
        # the second store must take the line exclusive (an upgrade),
        # invalidating the GPU's shared copy of the old word
        assert system.engine.stats.counter("upgrades").value >= 1
        assert all(cache.probe(pa) is None
                   for cache in system.gpu_l2_slices)

    @pytest.mark.xfail(strict=True, reason="a dirty L1D victim is "
                       "dropped: nothing writes it back to the L2")
    def test_dirty_l1_victim_written_back(self, tiny_config):
        def ops(buffers):
            base = buffers["heap"]
            # the compute gap lets the first store fill the line before
            # the second arrives, so the second hits (and dirties) the
            # L1D copy instead of combining or merging with the first
            return ([CpuOp.store(base, 1), CpuOp.compute(5000),
                     CpuOp.store(base, 2), CpuOp.compute(5000)]
                    + [CpuOp.load(base + 128 * (1 + i)) for i in range(128)]
                    + [CpuOp.load(base)])

        system, workload, _r = run_cpu_ops(tiny_config, CoherenceMode.CCSM,
                                           ops)
        pa = system.page_table.translate(workload.buffers["heap"])
        # the reload refilled the L1D from the L2: it must see word 2
        line = system.cpu_l1d.probe(pa)
        assert line is not None and line.data is not None
        assert line.data.get((pa % 128) // 4) == 2

    @pytest.mark.xfail(strict=True, reason="a store that merges into a "
                       "load's MSHR entry replays after the load copied "
                       "the L2 line into the L1D, so the clean L1D copy "
                       "lacks the stored word")
    def test_store_merged_into_load_miss_reaches_l1d(self, tiny_config):
        def ops(buffers):
            base = buffers["heap"]
            # twelve store misses fill the port's 8 MSHRs and park 4
            # more, holding every drain slot: the store to word 1 waits
            # in the store buffer while the load of word 0 misses, then
            # parks behind it and merges into the load's MSHR entry
            return ([CpuOp.store(base + 128 * (1 + i), i) for i in range(12)]
                    + [CpuOp.store(base + 4, 7), CpuOp.load(base),
                       CpuOp.compute(5000)])

        system, workload, _r = run_cpu_ops(tiny_config, CoherenceMode.CCSM,
                                           ops)
        pa = system.page_table.translate(workload.buffers["heap"])
        word = ((pa + 4) % 128) // 4
        assert system.cpu_l2.probe(pa).data.get(word) == 7
        # the L1D copy is clean, so a load of word 1 hits it: it must
        # hold the stored word, not 0
        line = system.cpu_l1d.probe(pa)
        assert line is not None and not line.dirty
        assert (line.data or {}).get(word) == 7
