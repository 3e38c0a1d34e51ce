"""Edge-case tests for the CPU core: stalls, combining limits, phases."""

import pytest

from repro.core.protocol_mode import CoherenceMode
from repro.core.system import IntegratedSystem
from repro.workloads.base import Workload
from repro.workloads.trace import CpuOp, CpuPhase, OpKind


class _Ops(Workload):
    code = "XX"
    name = "ops"

    def __init__(self, ops_builder):
        super().__init__("small")
        self._build_ops = ops_builder

    def build(self, ctx):
        base = ctx.alloc("buf", 1024 * 1024, False)
        return [CpuPhase("ops", self._build_ops(base))]


def run(config, ops_builder, mode=CoherenceMode.CCSM):
    system = IntegratedSystem(config, mode)
    result = system.run(_Ops(ops_builder))
    return system, result


class TestStoreBufferStall:
    def test_flood_of_conflicting_stores_completes(self, tiny_config):
        """Stores to many distinct lines overwhelm the 16-entry buffer
        and the drain slots; the core must stall and recover."""
        def ops(base):
            return [CpuOp.store(base + i * 128, i) for i in range(400)]

        system, result = run(tiny_config, ops)
        assert not system.cpu_core.store_buffer
        assert system.cpu_core.stats.counter("ops_executed").value == 400

    def test_stall_counter_moves_under_pressure(self, tiny_config):
        def ops(base):
            return [CpuOp.store(base + i * 128, i) for i in range(400)]

        system, _ = run(tiny_config, ops)
        assert system.cpu_core.stats.counter(
            "store_buffer_stall_events").value > 0

    def test_interleaved_loads_and_stores(self, tiny_config):
        def ops(base):
            sequence = []
            for index in range(50):
                sequence.append(CpuOp.store(base + index * 128, index))
                sequence.append(CpuOp.load(base + index * 128))
            return sequence

        system, result = run(tiny_config, ops)
        assert result.total_ticks > 0
        system.check_invariants()


class TestPhaseSemantics:
    def test_phase_cannot_run_twice_concurrently(self, tiny_config):
        system = IntegratedSystem(tiny_config, CoherenceMode.CCSM)
        system.cpu_core.run_phase([CpuOp.compute(10)], lambda t: None)
        with pytest.raises(RuntimeError):
            system.cpu_core.run_phase([CpuOp.compute(10)], lambda t: None)

    def test_empty_phase_finishes(self, tiny_config):
        system, result = run(tiny_config, lambda base: [])
        assert result.total_ticks >= 0

    def test_unknown_op_kind_rejected(self, tiny_config):
        def ops(base):
            return [CpuOp(OpKind.SHMEM)]  # SHMEM is a GPU-only op

        with pytest.raises(ValueError):
            run(tiny_config, ops)


class TestWriteCombining:
    def test_burst_spanning_lines_fetches_each_line_once(self, tiny_config):
        """A contiguous 8-store burst covers two lines: exactly two line
        fetches reach the protocol (write combining under backlog, MSHR
        merging otherwise), never eight."""
        def ops(base):
            return [CpuOp.store(base + i * 32, i) for i in range(8)]

        system, _ = run(tiny_config, ops)
        fetches = (system.engine.stats.counter("getx_requests").value
                   + system.engine.stats.counter("gets_requests").value)
        assert fetches == 2

    def test_non_adjacent_same_line_not_combined(self, tiny_config):
        """Combining is adjacency-limited: A, B, A' issues three drains
        (A' arrives after the line is in L1, so it still hits)."""
        def ops(base):
            return [CpuOp.store(base, 1),
                    CpuOp.store(base + 4096, 2),
                    CpuOp.store(base + 4, 3)]

        system, _ = run(tiny_config, ops)
        assert system.cpu_mem.stats.counter("stores").value == 3
