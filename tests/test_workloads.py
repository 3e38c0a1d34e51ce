"""Tests for the workload layer: patterns, graphs, the Table II suite."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.base import BuildContext
from repro.workloads.graphs import (
    csr_arrays,
    delaunay_like_graph,
    power_grid_graph,
)
from repro.workloads.patterns import (
    CPU_STORE_BYTES,
    broadcast_warps,
    cpu_consume,
    cpu_produce,
    gather_warps,
    interleave_warp_programs,
    merge_warp_programs,
    random_indices,
    stream_warps,
    strided_warps,
)
from repro.workloads.suite import (
    BENCHMARKS,
    TABLE2,
    benchmark_codes,
    get_workload,
)
from repro.workloads.trace import (
    CpuPhase,
    KernelLaunch,
    OpKind,
    coalesce_addresses,
)


def make_ctx():
    addresses = iter(range(0x10000, 0x100000000, 0x1000000))

    def alloc(name, size, gpu_accessed):
        return next(addresses)

    return BuildContext(alloc=alloc, num_sms=4)


class TestCpuPatterns:
    def test_produce_covers_buffer(self):
        ops = cpu_produce(0x1000, 256)
        assert len(ops) == 256 // CPU_STORE_BYTES
        assert ops[0].address == 0x1000
        assert ops[-1].address == 0x1000 + 256 - CPU_STORE_BYTES
        assert all(op.kind is OpKind.STORE for op in ops)

    def test_produce_gen_cycles_attached(self):
        ops = cpu_produce(0, 64, gen_cycles=12)
        assert all(op.cycles == 12 for op in ops)

    def test_consume_samples(self):
        ops = cpu_consume(0, 16 * 4096)
        assert len(ops) == 16
        assert all(op.kind is OpKind.LOAD for op in ops)


class TestGpuPatterns:
    def test_stream_covers_every_line_once(self):
        warps = stream_warps(0, 4096, num_warps=4, lanes=32, line_size=128)
        lines = set()
        for warp in warps:
            for op in warp.ops:
                lines.add(op.addresses[0] & ~127)
        assert len(lines) == 32

    def test_stream_fully_coalesced(self):
        warps = stream_warps(0, 1024, num_warps=2)
        for warp in warps:
            for op in warp.ops:
                spans = {address & ~127 for address in op.addresses}
                assert len(spans) == 1

    def test_stream_reuse_repeats(self):
        single = stream_warps(0, 4096, 4, reuse=1)
        double = stream_warps(0, 4096, 4, reuse=2)
        assert sum(len(w) for w in double) == 2 * sum(len(w)
                                                      for w in single)

    def test_stream_stores(self):
        warps = stream_warps(0, 1024, 2, is_store=True, value=9)
        ops = [op for warp in warps for op in warp.ops]
        assert all(op.kind is OpKind.STORE and op.value == 9 for op in ops)

    def test_strided_diverges(self):
        warps = strided_warps(0, 64 * 128, num_warps=2, stride_lines=1)
        op = warps[0].ops[0]
        lines = {address & ~127 for address in op.addresses}
        assert len(lines) == 32  # one line per lane

    def test_broadcast_every_warp_reads_everything(self):
        warps = broadcast_warps(0, 1024, num_warps=3)
        for warp in warps:
            lines = {op.addresses[0] & ~127 for op in warp.ops}
            assert len(lines) == 8

    def test_gather_uses_indices(self):
        warps = gather_warps(0x1000, 4096, 2, indices=[0, 1, 2, 3],
                             lanes=4)
        op = warps[0].ops[0]
        assert list(op.addresses) == [0x1000, 0x1004, 0x1008, 0x100C]

    def test_random_indices_deterministic(self):
        assert random_indices(10, 100, 5) == random_indices(10, 100, 5)
        assert random_indices(10, 100, 5) != random_indices(10, 100, 6)

    def test_merge_same_warp_counts(self):
        a = stream_warps(0, 1024, 4)
        b = stream_warps(0x10000, 1024, 4)
        merged = merge_warp_programs(a, b)
        assert len(merged) == 4
        assert len(merged[0]) == len(a[0]) + len(b[0])

    def test_merge_rejects_mismatch(self):
        with pytest.raises(ValueError):
            merge_warp_programs(stream_warps(0, 1024, 4),
                                stream_warps(0, 1024, 2))

    def test_interleave_alternates(self):
        a = stream_warps(0, 512, 1)          # 4 line loads
        b = stream_warps(0x10000, 512, 1, is_store=True)
        woven = interleave_warp_programs(a, b)
        kinds = [op.kind for op in woven[0].ops]
        assert kinds == [OpKind.LOAD, OpKind.STORE] * 4

    def test_builders_match_per_lane_loops(self):
        """The NumPy builders emit the addresses of a per-lane loop,
        with precompiled lines equal to coalescing those lanes."""
        base, lanes, line, warps = 0x40000, 32, 128, 3

        def expected(rows, warp_of):
            programs = [[] for _ in range(warps)]
            for index, row in enumerate(rows):
                programs[warp_of(index)].append(row)
            return programs

        def emitted(programs):
            for program in programs:
                for op in program.ops:
                    assert op.lines == coalesce_addresses(op.addresses, line)
            return [[[int(a) for a in op.addresses] for op in program.ops]
                    for program in programs]

        stream = [[base + index * line + 4 * lane for lane in range(lanes)]
                  for index in range(40)]
        assert emitted(stream_warps(base, 40 * line, warps)) == \
            expected(stream, lambda index: index % warps)
        strided = [[base + (group * lanes + lane) * 5 % 96 * line
                    for lane in range(lanes)] for group in range(3)]
        assert emitted(strided_warps(base, 96 * line, warps,
                                     stride_lines=5)) == \
            expected(strided, lambda group: group % warps)
        assert emitted(broadcast_warps(base, 8 * line, warps)) == \
            [stream[:8]] * warps
        indices = random_indices(200, 10_000, seed=3)
        groups = [indices[start:start + lanes]
                  for start in range(0, len(indices), lanes)]
        gathered = [[base + index % 1024 * 4 for index in group]
                    for group in groups]
        assert emitted(gather_warps(base, 4096, warps, indices)) == \
            expected(gathered, lambda group: group % warps)

    @given(st.integers(min_value=128, max_value=1 << 16),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=30)
    def test_property_stream_op_count(self, nbytes, num_warps):
        warps = stream_warps(0, nbytes, num_warps)
        total_ops = sum(len(warp) for warp in warps)
        assert total_ops == max(1, nbytes // 128)


class TestGraphs:
    def test_power_grid_connected_and_sparse(self):
        import networkx as nx
        graph = power_grid_graph(200, seed=1)
        assert nx.is_connected(graph)
        average_degree = 2 * graph.number_of_edges() / len(graph)
        assert 2 <= average_degree <= 6

    def test_delaunay_like_connected(self):
        import networkx as nx
        graph = delaunay_like_graph(300, seed=1)
        assert nx.is_connected(graph)

    def test_deterministic(self):
        a = power_grid_graph(100, seed=7)
        b = power_grid_graph(100, seed=7)
        assert sorted(a.edges) == sorted(b.edges)

    def test_csr_well_formed(self):
        graph = power_grid_graph(64, seed=2)
        offsets, columns = csr_arrays(graph)
        assert len(offsets) == len(graph) + 1
        assert offsets[-1] == len(columns) == 2 * graph.number_of_edges()
        assert all(offsets[i] <= offsets[i + 1]
                   for i in range(len(offsets) - 1))
        assert all(0 <= c < len(graph) for c in columns)


class TestSuite:
    def test_all_22_benchmarks_registered(self):
        assert len(TABLE2) == 22
        assert len(BENCHMARKS) == 22
        assert benchmark_codes() == [row.code for row in TABLE2]

    def test_shared_memory_column_matches_table2(self):
        for row in TABLE2:
            assert BENCHMARKS[row.code].uses_shared_memory == row.shared, \
                row.code

    def test_get_workload(self):
        workload = get_workload("va", "big")
        assert workload.code == "VA"
        assert workload.input_size == "big"

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            get_workload("ZZ")

    def test_bad_input_size_rejected(self):
        with pytest.raises(ValueError):
            get_workload("VA", "huge")

    @pytest.mark.parametrize("code", [row.code for row in TABLE2])
    def test_every_benchmark_builds_small(self, code):
        workload = get_workload(code, "small")
        phases = workload.build(make_ctx())
        assert phases, code
        assert any(isinstance(p, KernelLaunch) for p in phases), code
        for phase in phases:
            assert isinstance(phase, (CpuPhase, KernelLaunch))

    @pytest.mark.parametrize("code", ["BP", "NN", "VA", "GC"])
    def test_big_builds(self, code):
        phases = get_workload(code, "big").build(make_ctx())
        assert phases

    def test_pt_has_no_cpu_produced_gpu_data(self):
        """The paper's PT property: the CPU stores nothing the GPU reads."""
        phases = get_workload("PT", "small").build(make_ctx())
        cpu_stores = [op for phase in phases if isinstance(phase, CpuPhase)
                      for op in phase.ops if op.kind is OpKind.STORE]
        assert cpu_stores == []

    def test_deterministic_builds(self):
        first = get_workload("BF", "small").build(make_ctx())
        second = get_workload("BF", "small").build(make_ctx())
        ops_a = [list(op.addresses) for phase in first
                 if isinstance(phase, KernelLaunch)
                 for warp in phase.warps for op in warp.ops]
        ops_b = [list(op.addresses) for phase in second
                 if isinstance(phase, KernelLaunch)
                 for warp in phase.warps for op in warp.ops]
        assert ops_a == ops_b
