"""Tests for the workload layer: patterns, graphs, the Table II suite."""

import hashlib
import json
import math
import threading
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.base import BuildContext, Workload
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
    shared_ops,
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


def make_system_ctx():
    """A build context with the simulated machine's defaults (16 SMs)."""
    addresses = iter(range(0x10000, 1 << 48, 1 << 28))
    return BuildContext(alloc=lambda name, size, gpu: next(addresses))


def warp_ops(phases):
    return [op for phase in phases if isinstance(phase, KernelLaunch)
            for warp in phase.warps for op in warp.ops]


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
        """The builders emit the addresses of a per-lane loop, with
        precompiled lines equal to coalescing those lanes."""
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
            return [[list(op.addresses) for op in program.ops]
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

    @pytest.mark.parametrize("base,line", [(0x40000, 64), (0x40010, 128)])
    def test_rows_crossing_a_line_keep_every_line(self, base, line):
        """A consecutive-word row wider than a line, or not line
        aligned, precompiles both of the lines it touches."""
        for programs in (stream_warps(base, 8 * line, 2, line_size=line),
                         broadcast_warps(base, 8 * line, 2, line_size=line)):
            for op in (op for program in programs for op in program.ops):
                assert op.lines == coalesce_addresses(op.addresses, line)
                assert len(op.lines) == 2

    @given(st.integers(min_value=128, max_value=1 << 16),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=30)
    def test_property_stream_op_count(self, nbytes, num_warps):
        warps = stream_warps(0, nbytes, num_warps)
        total_ops = sum(len(warp) for warp in warps)
        assert total_ops == max(1, nbytes // 128)


def reachable(adjacency, source=0):
    """Nodes a breadth-first search from *source* reaches."""
    seen = {source}
    frontier = deque([source])
    while frontier:
        for neighbor in adjacency[frontier.popleft()]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return seen


def number_of_edges(adjacency):
    return sum(len(neighbors) for neighbors in adjacency.values()) // 2


def csr_digest(graph):
    return hashlib.sha256(json.dumps(csr_arrays(graph)).encode()).hexdigest()


class TestGraphs:
    def test_power_grid_connected_and_sparse(self):
        graph = power_grid_graph(200, seed=1)
        assert reachable(graph) == set(graph)
        average_degree = 2 * number_of_edges(graph) / len(graph)
        assert 2 <= average_degree <= 6

    def test_delaunay_like_connected(self):
        graph = delaunay_like_graph(300, seed=1)
        assert reachable(graph) == set(graph)

    def test_deterministic(self):
        a = power_grid_graph(100, seed=7)
        b = power_grid_graph(100, seed=7)
        assert a == b

    def test_csr_well_formed(self):
        graph = power_grid_graph(64, seed=2)
        offsets, columns = csr_arrays(graph)
        assert len(offsets) == len(graph) + 1
        assert offsets[-1] == len(columns) == 2 * number_of_edges(graph)
        assert all(offsets[i] <= offsets[i + 1]
                   for i in range(len(offsets) - 1))
        assert all(0 <= c < len(graph) for c in columns)

    def test_neighbours_ascending_and_symmetric(self):
        for graph in (power_grid_graph(300, seed=3),
                      delaunay_like_graph(300, seed=3)):
            for node, neighbors in graph.items():
                assert neighbors == sorted(set(neighbors))
                assert node not in neighbors
                assert all(node in graph[other] for other in neighbors)


class TestGraphPins:
    """The Pannotia inputs, byte for byte.

    sha256 of the JSON ``csr_arrays`` of the graphs the suite builds,
    recorded from networkx's ``connected_watts_strogatz_graph`` and
    ``random_geometric_graph`` (with its component bridging): the small
    input at the first ten benchmark seeds, the big input at four.
    """

    POWER_GRID_4941 = [
        "bb1d893e8817933896416b4d225aab0f8ed6ac0684bf97e374c2ec6a2f991afd",
        "2ec31fbc7a9c9465311aff5953e819479703cabc2685c5f327b94916dd2fc181",
        "79d32ef7300249d9b43ef080c3c1dcaa58571e8955ee1353577371b47519898e",
        "7c83ca60f9d87a09a65bdbe11e494f5f072baf568163d9775c8110e171019655",
        "96e5d0257dfbceab0cafe9f105902615cac3b487ac23a3f6f28a605ff012e456",
        "9707ca059c2324611d0056524250d2a98d70cac4f176e8815c0c00a713b55ce0",
        "8a07d0dbbdec7daa17086d0f7b6a8dadb2540d19455baac6b9975641e70c38d7",
        "18b8ccf8638109b9607d530268e95c95bfe9e7942376630f0c63ec740a3c82c6",
        "b2f41e9eb46760dbeaebd2464a92442f0bfcb875698f4f9577a78e2e049585c3",
        "9d2b5196150fc1a4525d6ea174e8551ff884787fef235fef9e26f4b2174c2aa3",
    ]
    DELAUNAY_8192 = [
        "d8a93883322d3f32b306060be71d24dae152cfa76ed85083a14641b77a6acec1",
        "ab4d222fcfd7cf547aab260d559ebceea59796544b026d8a803e8d8e4c6d4c7f",
        "0ebe96aba867f97269252cee5f21979baff14b36c4334fe2682f625a746bec26",
        "5311db990276f29f13a9fd2fe8b6687d059a5aff2d1dbe760c79a53083e9711c",
    ]

    @pytest.mark.parametrize("offset", range(len(POWER_GRID_4941)))
    def test_power_grid_small_input(self, offset):
        graph = power_grid_graph(4941, BuildContext.seed + offset)
        assert csr_digest(graph) == self.POWER_GRID_4941[offset]

    @pytest.mark.parametrize("offset", range(len(DELAUNAY_8192)))
    def test_delaunay_big_input(self, offset):
        graph = delaunay_like_graph(8192, BuildContext.seed + offset)
        assert csr_digest(graph) == self.DELAUNAY_8192[offset]

    def test_matches_networkx_generators(self):
        """Against networkx itself, where it is installed."""
        nx = pytest.importorskip("networkx")
        for seed in range(50):
            for nodes in (20, 150):
                reference = nx.connected_watts_strogatz_graph(
                    nodes, k=4, p=0.05, seed=seed, tries=200)
                assert csr_arrays(power_grid_graph(nodes, seed)) == \
                    csr_arrays(reference), (nodes, seed)
            for nodes in (30, 300):
                radius = math.sqrt(6.0 / (math.pi * nodes))
                reference = nx.random_geometric_graph(nodes, radius,
                                                      seed=seed)
                components = list(nx.connected_components(reference))
                for previous, current in zip(components, components[1:]):
                    reference.add_edge(next(iter(previous)),
                                       next(iter(current)))
                assert csr_arrays(delaunay_like_graph(nodes, seed)) == \
                    csr_arrays(reference), (nodes, seed)


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


class _TwoSweeps(Workload):
    """Builds one sweep, waits at a barrier, then builds it again."""

    code = "XX"

    def __init__(self, barrier):
        super().__init__("small")
        self.barrier = barrier

    def build(self, ctx):
        first = stream_warps(0x10000, 8192, 4, compute_per_line=3)
        self.barrier.wait(timeout=60)
        second = stream_warps(0x10000, 8192, 4, compute_per_line=3)
        return [KernelLaunch("sweeps", merge_warp_programs(first, second))]


class TestSharedOps:
    """Equal trace pieces are one object within a build, never across."""

    def test_bitonic_sort_ops_are_shared_across_passes(self):
        ops = warp_ops(get_workload("BS", "small").build_phases(
            make_system_ctx()))
        assert len(ops) == 110592
        # 4,096 key lines: one load per line, one store per line and
        # pass (9 passes store their pass index), one compute bubble
        assert len({id(op) for op in ops}) == 4096 + 9 * 4096 + 1
        memory = [op for op in ops if op.kind is not OpKind.COMPUTE]
        # a load and a store of the same line share its row and lines
        assert len({id(op.addresses) for op in memory}) == 4096
        assert len({id(op.lines) for op in memory}) == 4096

    @pytest.mark.parametrize("code,bound_mb", [("BS", 10), ("ST", 12)])
    def test_trace_memory(self, code, bound_mb):
        workload = get_workload(code, "small")
        tracemalloc.start()
        try:
            phases = workload.build_phases(make_system_ctx())
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert phases
        # one object per op and pass held 27.5 MB (BS) and 20.1 MB (ST)
        assert held < bound_mb * 1e6, held

    def test_consecutive_builds_share_nothing(self):
        workload = get_workload("BS", "small")
        first = warp_ops(workload.build_phases(make_system_ctx()))
        second = warp_ops(workload.build_phases(make_system_ctx()))
        assert {id(op) for op in first}.isdisjoint(
            {id(op) for op in second})

    def test_builds_on_two_threads_share_nothing(self):
        barrier = threading.Barrier(2)
        built = []

        def build():
            built.append(_TwoSweeps(barrier).build_phases(make_ctx()))

        threads = [threading.Thread(target=build) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(built) == 2
        ids = []
        for phases in built:
            ops = warp_ops(phases)
            # within one build the second sweep reuses the first's ops
            assert len({id(op) for op in ops}) == 64 + 1
            ids.append({id(op) for op in ops})
        assert ids[0].isdisjoint(ids[1])

    def test_helpers_outside_a_build_return_fresh_objects(self):
        def objects(ops):
            return ({id(op) for op in ops}
                    | {id(op.addresses) for op in ops
                       if op.kind is OpKind.LOAD}
                    | {id(op.lines) for op in ops
                       if op.kind is OpKind.LOAD})

        # both calls' results stay alive, so no id can be reused
        first, second = (
            [op for warp in stream_warps(0, 4096, 4, compute_per_line=2,
                                         shmem_per_line=3)
             for op in warp.ops]
            for _ in range(2))
        assert objects(first).isdisjoint(objects(second))

    def test_pool_closes_with_its_block(self):
        with shared_ops():
            inside = stream_warps(0, 4096, 4)[0].ops[0]
            assert stream_warps(0, 4096, 4)[0].ops[0] is inside
        assert stream_warps(0, 4096, 4)[0].ops[0] is not inside
