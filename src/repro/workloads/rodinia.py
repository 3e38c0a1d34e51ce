"""Rodinia benchmark models (Table II rows BP…SR).

Each class reproduces the memory-access *structure* of its namesake —
buffer sizes from Table II inputs, producer/consumer relationships,
shared-memory (scratchpad) usage per the "Shared" column, coalescing
quality, and kernel iteration counts — so the DS-vs-CCSM comparison
exercises the same protocol behaviour the paper measured.

Two structural knobs recur (see DESIGN.md):

* ``cpu_private_bytes`` — CPU-private scratch written during the produce
  phase.  When produce traffic exceeds the 2 MiB CPU L2, the produced
  data is evicted to DRAM and the CCSM consumer pays full memory + probe
  latency; this is the mechanism behind the paper's big-input gains for
  the shared-memory benchmarks (BP/HT/LU/NW).
* ``warps_per_sm`` — resident parallelism, which controls how much
  memory latency the SMs can hide.
"""

from __future__ import annotations

from typing import Dict, List

from repro.workloads.base import BuildContext, Workload
from repro.workloads.patterns import (
    broadcast_warps,
    cpu_consume,
    cpu_produce,
    gather_warps,
    interleave_warp_programs,
    merge_warp_programs,
    random_indices,
    shmem_op,
    stream_warps,
    strided_warps,
)
from repro.workloads.trace import CpuPhase, KernelLaunch, WarpProgram


class RodiniaWorkload(Workload):
    """Shared plumbing for the Rodinia models."""

    suite = "Rodinia"
    #: CPU-private scratch (heap-allocated in every mode) per input size
    cpu_private_bytes: Dict[str, int] = {"small": 0, "big": 0}
    #: per-store generation cost in the produce loop (CPU cycles)
    produce_gen_cycles: int = 10

    def _produce(self, ctx: BuildContext, buffers: List[tuple],
                 consume_scratch: bool = True) -> CpuPhase:
        """CPU writes the GPU-bound buffers, then its private scratch."""
        ops = []
        for index, (base, nbytes) in enumerate(buffers):
            ops.extend(cpu_produce(base, nbytes, value_seed=index + 1,
                                   gen_cycles=self.produce_gen_cycles))
        private = self.cpu_private_bytes.get(self.input_size, 0)
        if private and consume_scratch:
            scratch = ctx.alloc(f"{self.code}.scratch", private, False)
            ops.extend(cpu_produce(scratch, private, value_seed=99,
                                   gen_cycles=self.produce_gen_cycles))
        return CpuPhase(f"{self.code}.produce", ops)

    def _warps(self, ctx: BuildContext, per_sm: int) -> int:
        return max(1, per_sm * ctx.num_sms)


class Backprop(RodiniaWorkload):
    """BP — neural-net training: layerforward + adjust_weights kernels.

    The CPU produces the input layer and the full weight matrix; the
    kernels stream both with heavy scratchpad reductions (Shared=Yes),
    so small inputs are compute-bound and the DS gain shows up as a miss
    -rate drop more than a speedup.
    """

    code = "BP"
    name = "backprop"
    uses_shared_memory = True
    cpu_private_bytes = {"small": 64 * 1024, "big": 1536 * 1024}
    produce_gen_cycles = 10  # random weight initialisation

    def build(self, ctx: BuildContext) -> List[object]:
        units = 1536 if self.input_size == "small" else 10000
        hidden = 16
        in_bytes = units * 4
        weight_bytes = units * (hidden + 1) * 4
        in_units = ctx.alloc("bp.input", in_bytes, True)
        weights = ctx.alloc("bp.weights", weight_bytes, True)
        partial = ctx.alloc("bp.partial", max(4096, hidden * 256 * 4), True)

        produce = self._produce(ctx, [(in_units, in_bytes),
                                      (weights, weight_bytes)])
        warps = self._warps(ctx, 8)
        forward = merge_warp_programs(
            stream_warps(in_units, in_bytes, warps, ctx.lanes_per_warp,
                         ctx.line_size, shmem_per_line=8),
            stream_warps(weights, weight_bytes, warps, ctx.lanes_per_warp,
                         ctx.line_size, shmem_per_line=28),
            stream_warps(partial, max(4096, hidden * 256 * 4), warps,
                         ctx.lanes_per_warp, ctx.line_size, is_store=True,
                         value=7),
        )
        adjust = merge_warp_programs(
            stream_warps(weights, weight_bytes, warps, ctx.lanes_per_warp,
                         ctx.line_size, shmem_per_line=12),
            stream_warps(weights, weight_bytes, warps, ctx.lanes_per_warp,
                         ctx.line_size, is_store=True, value=9),
        )
        return [produce,
                KernelLaunch("bp.layerforward", forward),
                KernelLaunch("bp.adjust_weights", adjust)]


class BfsGraph(RodiniaWorkload):
    """BF — breadth-first search: frontier sweeps over a CSR graph.

    No shared memory; the edge array streams while node state is
    gathered irregularly, and several frontier iterations re-touch the
    node arrays.
    """

    code = "BF"
    name = "bfs"
    uses_shared_memory = False
    cpu_private_bytes = {"small": 32 * 1024, "big": 1536 * 1024}
    produce_gen_cycles = 16  # graph-file parsing

    def build(self, ctx: BuildContext) -> List[object]:
        nodes = 4096 if self.input_size == "small" else 6000
        edges = nodes * 6
        node_bytes = nodes * 16   # Node struct: start + no_of_edges + pad
        edge_bytes = edges * 4
        state_bytes = nodes * 4
        node_arr = ctx.alloc("bf.nodes", node_bytes, True)
        edge_arr = ctx.alloc("bf.edges", edge_bytes, True)
        cost = ctx.alloc("bf.cost", state_bytes, True)

        produce = self._produce(ctx, [(node_arr, node_bytes),
                                      (edge_arr, edge_bytes)])
        warps = self._warps(ctx, 6)
        iterations = 4
        kernels: List[object] = [produce]
        for level in range(iterations):
            indices = random_indices(edges // 4, nodes,
                                     seed=ctx.seed + level)
            sweep = merge_warp_programs(
                stream_warps(node_arr, node_bytes, warps,
                             ctx.lanes_per_warp, ctx.line_size,
                             compute_per_line=2),
                stream_warps(edge_arr, edge_bytes, warps,
                             ctx.lanes_per_warp, ctx.line_size),
                _pad_to(gather_warps(cost, state_bytes, warps, indices,
                                     ctx.lanes_per_warp, ctx.line_size,
                                     compute_per_access=2), warps),
                stream_warps(cost, state_bytes, warps, ctx.lanes_per_warp,
                             ctx.line_size, is_store=True, value=level),
            )
            kernels.append(KernelLaunch(f"bf.level{level}", sweep))
        return kernels


class Gaussian(RodiniaWorkload):
    """GA — Gaussian elimination: many tiny kernels re-reading one matrix.

    The matrix fits in the GPU L2 after the first sweep, so accesses are
    enormous while misses stay near zero — the paper's "zero miss rate,
    zero speedup" case.
    """

    code = "GA"
    name = "gaussian"
    uses_shared_memory = True
    produce_gen_cycles = 50  # ASCII matrix parsing dominates the produce

    def build(self, ctx: BuildContext) -> List[object]:
        n = 256 if self.input_size == "small" else 700
        matrix_bytes = min(n * n * 4, 1536 * 1024)  # stays L2-resident
        matrix = ctx.alloc("ga.matrix", matrix_bytes, True)
        produce = self._produce(ctx, [(matrix, matrix_bytes)])
        warps = self._warps(ctx, 8)
        sweeps = max(6, n // 54)
        phases: List[object] = [produce]
        for sweep in range(sweeps):
            body = merge_warp_programs(
                stream_warps(matrix, matrix_bytes, warps,
                             ctx.lanes_per_warp, ctx.line_size,
                             shmem_per_line=48),
                stream_warps(matrix, matrix_bytes, warps,
                             ctx.lanes_per_warp, ctx.line_size,
                             is_store=True, value=sweep),
            )
            phases.append(KernelLaunch(f"ga.fan{sweep}", body))
        return phases


class Hotspot(RodiniaWorkload):
    """HT — thermal stencil on temp/power grids with pyramid tiling.

    Shared=Yes: tile compute happens in scratchpad; the grids are
    CPU-produced, so DS cuts the compulsory misses of both input grids.
    """

    code = "HT"
    name = "hotspot"
    uses_shared_memory = True
    cpu_private_bytes = {"small": 64 * 1024, "big": 640 * 1024}

    def build(self, ctx: BuildContext) -> List[object]:
        n = 64 if self.input_size == "small" else 512
        grid_bytes = n * n * 4
        temp = ctx.alloc("ht.temp", grid_bytes, True)
        power = ctx.alloc("ht.power", grid_bytes, True)
        out = ctx.alloc("ht.out", grid_bytes, True)
        produce = self._produce(ctx, [(temp, grid_bytes),
                                      (power, grid_bytes)])
        warps = self._warps(ctx, 8)
        steps = 2
        phases: List[object] = [produce]
        source = temp
        for step in range(steps):
            body = merge_warp_programs(
                stream_warps(source, grid_bytes, warps, ctx.lanes_per_warp,
                             ctx.line_size, shmem_per_line=16),
                stream_warps(power, grid_bytes, warps, ctx.lanes_per_warp,
                             ctx.line_size, shmem_per_line=8),
                stream_warps(out, grid_bytes, warps, ctx.lanes_per_warp,
                             ctx.line_size, is_store=True, value=step),
            )
            phases.append(KernelLaunch(f"ht.step{step}", body))
            source = out
        return phases


class Kmeans(RodiniaWorkload):
    """KM — k-means: points stream once per iteration, centroids broadcast.

    The broadcast-heavy inner loop makes the kernel compute/issue-bound
    (zero speedup) while the point stream's compulsory misses still drop
    under DS (miss-rate reduction, as Fig. 5 shows).
    """

    code = "KM"
    name = "kmeans"
    uses_shared_memory = True
    produce_gen_cycles = 40  # feature-file parsing

    def build(self, ctx: BuildContext) -> List[object]:
        points = 2000 if self.input_size == "small" else 5000
        features = 34
        point_bytes = points * features * 4
        centroid_bytes = 5 * features * 4
        membership_bytes = points * 4
        feature_arr = ctx.alloc("km.features", point_bytes, True)
        centroids = ctx.alloc("km.centroids", max(4096, centroid_bytes),
                              True)
        membership = ctx.alloc("km.membership", membership_bytes, True)
        produce = self._produce(ctx, [(feature_arr, point_bytes),
                                      (centroids, max(4096,
                                                      centroid_bytes))])
        warps = self._warps(ctx, 8)
        iterations = 4
        phases: List[object] = [produce]
        for iteration in range(iterations):
            body = merge_warp_programs(
                stream_warps(feature_arr, point_bytes, warps,
                             ctx.lanes_per_warp, ctx.line_size,
                             shmem_per_line=48),
                broadcast_warps(centroids, max(4096, centroid_bytes),
                                warps, ctx.lanes_per_warp, ctx.line_size,
                                repeats=4, compute_per_line=4),
                stream_warps(membership, membership_bytes, warps,
                             ctx.lanes_per_warp, ctx.line_size,
                             is_store=True, value=iteration),
            )
            phases.append(KernelLaunch(f"km.iter{iteration}", body))
        return phases


class LavaMD(RodiniaWorkload):
    """LV — molecular dynamics in boxes: tiny footprint, huge reuse.

    Particles fit in the L1s; nearly all time is scratchpad force
    computation — the paper's zero-speedup, zero-miss-change case.
    """

    code = "LV"
    name = "lavaMD"
    uses_shared_memory = True
    produce_gen_cycles = 30  # per-particle position/charge generation

    def build(self, ctx: BuildContext) -> List[object]:
        boxes = 2 if self.input_size == "small" else 4
        particle_bytes = boxes ** 3 * 128 * 16  # 128 particles / box
        particles = ctx.alloc("lv.particles", particle_bytes, True)
        forces = ctx.alloc("lv.forces", particle_bytes, True)
        produce = self._produce(ctx, [(particles, particle_bytes)])
        warps = self._warps(ctx, 6)
        # cooperative tile loading: lavaMD stages neighbour-box particles
        # into shared memory once per block; one warp per SM performs the
        # loads (warps are dealt to SMs round-robin, so the first
        # ``num_sms`` warps land on distinct SMs) while every warp runs
        # the O(n²) force loops out of the scratchpad
        loaders = stream_warps(particles, particle_bytes, ctx.num_sms,
                               ctx.lanes_per_warp, ctx.line_size)
        body = [WarpProgram() for _ in range(warps)]
        for index in range(min(ctx.num_sms, warps)):
            body[index].ops.extend(loaders[index].ops)
        burst = shmem_op(60)
        for warp in body:
            warp.ops.extend([burst] * 60)
        for index, store_warp in enumerate(stream_warps(
                forces, particle_bytes, warps, ctx.lanes_per_warp,
                ctx.line_size, is_store=True, value=3)):
            body[index].ops.extend(store_warp.ops)
        return [produce, KernelLaunch("lv.kernel", body)]


class LUDecomposition(RodiniaWorkload):
    """LU — blocked LU decomposition: diagonal/perimeter/internal kernels.

    Shared=Yes; the matrix re-streams each block step, so L2 accesses
    dwarf misses; big inputs push the CPU-side copy out of the CPU L2
    and DS starts to matter.
    """

    code = "LU"
    name = "lud"
    uses_shared_memory = True
    cpu_private_bytes = {"small": 32 * 1024, "big": 1280 * 1024}
    produce_gen_cycles = 10

    def build(self, ctx: BuildContext) -> List[object]:
        n = 256 if self.input_size == "small" else 512
        matrix_bytes = n * n * 4
        matrix = ctx.alloc("lu.matrix", matrix_bytes, True)
        produce = self._produce(ctx, [(matrix, matrix_bytes)])
        warps = self._warps(ctx, 8)
        # blocked LU sweeps the trailing submatrix once per panel; the
        # panel count grows with n (O(n^3) work over O(n^2) data)
        steps = max(4, n // 64)
        phases: List[object] = [produce]
        for step in range(steps):
            body = merge_warp_programs(
                stream_warps(matrix, matrix_bytes, warps,
                             ctx.lanes_per_warp, ctx.line_size,
                             shmem_per_line=24),
                stream_warps(matrix, matrix_bytes, warps,
                             ctx.lanes_per_warp, ctx.line_size,
                             is_store=True, value=step),
            )
            phases.append(KernelLaunch(f"lu.step{step}", body))
        return phases


class NearestNeighbor(RodiniaWorkload):
    """NN — nearest neighbour over hurricane records: pure streaming.

    No shared memory, one pass, trivial compute — the canonical direct
    store winner (>10% small-input speedup in Fig. 4).  Big input
    (42764 × 64-byte records ≈ 2.7 MiB) exceeds the GPU L2, eroding the
    pushed lines before use.
    """

    code = "NN"
    name = "nn"
    uses_shared_memory = False
    cpu_private_bytes = {"small": 16 * 1024, "big": 512 * 1024}
    produce_gen_cycles = 5  # records stream from a binary file

    def build(self, ctx: BuildContext) -> List[object]:
        records = 10691 if self.input_size == "small" else 42764
        record_bytes = records * 64
        dist_bytes = records * 4
        data = ctx.alloc("nn.records", record_bytes, True)
        distances = ctx.alloc("nn.distances", dist_bytes, True)
        produce = self._produce(ctx, [(data, record_bytes)])
        # Rodinia nn launches tiny thread blocks: occupancy is low and
        # memory latency is poorly hidden — why NN tops Fig. 4
        warps = self._warps(ctx, 2)
        body = merge_warp_programs(
            stream_warps(data, record_bytes, warps, ctx.lanes_per_warp,
                         ctx.line_size, compute_per_line=2),
            stream_warps(distances, dist_bytes, warps, ctx.lanes_per_warp,
                         ctx.line_size, is_store=True, value=5),
        )
        consume = CpuPhase("nn.reduce",
                           cpu_consume(distances, dist_bytes))
        return [produce, KernelLaunch("nn.euclid", body), consume]


class NeedlemanWunsch(RodiniaWorkload):
    """NW — sequence alignment: wavefront DP over score + reference grids.

    Shared=Yes tiling; two CPU-produced grids; successive diagonal
    launches re-touch the score matrix.
    """

    code = "NW"
    name = "needle"
    uses_shared_memory = True
    cpu_private_bytes = {"small": 48 * 1024, "big": 1536 * 1024}
    produce_gen_cycles = 10

    def build(self, ctx: BuildContext) -> List[object]:
        n = 160 if self.input_size == "small" else 320
        grid_bytes = n * n * 4
        score = ctx.alloc("nw.score", grid_bytes, True)
        reference = ctx.alloc("nw.ref", grid_bytes, True)
        produce = self._produce(ctx, [(score, grid_bytes),
                                      (reference, grid_bytes)])
        warps = self._warps(ctx, 4)
        phases: List[object] = [produce]
        for diagonal in range(max(2, n // 80)):
            body = merge_warp_programs(
                stream_warps(score, grid_bytes, warps, ctx.lanes_per_warp,
                             ctx.line_size, shmem_per_line=20),
                stream_warps(reference, grid_bytes, warps,
                             ctx.lanes_per_warp, ctx.line_size,
                             shmem_per_line=6),
                stream_warps(score, grid_bytes, warps, ctx.lanes_per_warp,
                             ctx.line_size, is_store=True, value=diagonal),
            )
            phases.append(KernelLaunch(f"nw.diag{diagonal}", body))
        return phases


class Pathfinder(RodiniaWorkload):
    """PT — dynamic programming over GPU-generated rows.

    The paper singles PT out: "the CPU does not store any data that will
    later be used by GPU" — the wall rows are initialised on the GPU
    itself, so direct store has nothing to forward and changes nothing.
    """

    code = "PT"
    name = "pathfinder"
    uses_shared_memory = True

    def build(self, ctx: BuildContext) -> List[object]:
        cols = 2500 if self.input_size == "small" else 5000
        row_bytes = cols * 4
        rows = 16
        wall = ctx.alloc("pt.wall", row_bytes * rows, True)
        result = ctx.alloc("pt.result", row_bytes, True)
        warps = self._warps(ctx, 6)
        # GPU initialises its own data: an init kernel writes the wall
        init = stream_warps(wall, row_bytes * rows, warps,
                            ctx.lanes_per_warp, ctx.line_size,
                            is_store=True, value=1)
        sweep = merge_warp_programs(
            stream_warps(wall, row_bytes * rows, warps, ctx.lanes_per_warp,
                         ctx.line_size, shmem_per_line=8),
            stream_warps(result, row_bytes, warps, ctx.lanes_per_warp,
                         ctx.line_size, is_store=True, value=2),
        )
        # a token CPU phase (argument setup only — no shared data)
        setup = CpuPhase("pt.setup", [])
        return [setup, KernelLaunch("pt.init", init),
                KernelLaunch("pt.dynproc", sweep)]


class Srad(RodiniaWorkload):
    """SR — speckle-reducing anisotropic diffusion: iterative stencil.

    Shared=Yes; the image is CPU-produced; iterations keep it L2
    resident, so misses drop under DS but the compute-bound kernels gain
    no time (paper: zero speedup, reduced misses, small input).
    """

    code = "SR"
    name = "srad"
    uses_shared_memory = True
    produce_gen_cycles = 40  # image extraction/log transform per element

    def build(self, ctx: BuildContext) -> List[object]:
        n = 256 if self.input_size == "small" else 512
        image_bytes = n * n * 4
        image = ctx.alloc("sr.image", image_bytes, True)
        coeff = ctx.alloc("sr.coeff", image_bytes, True)
        produce = self._produce(ctx, [(image, image_bytes)])
        warps = self._warps(ctx, 8)
        phases: List[object] = [produce]
        for iteration in range(6):
            body = merge_warp_programs(
                stream_warps(image, image_bytes, warps, ctx.lanes_per_warp,
                             ctx.line_size, shmem_per_line=48),
                stream_warps(coeff, image_bytes, warps, ctx.lanes_per_warp,
                             ctx.line_size, is_store=True, value=iteration),
                stream_warps(coeff, image_bytes, warps, ctx.lanes_per_warp,
                             ctx.line_size, shmem_per_line=24),
                stream_warps(image, image_bytes, warps, ctx.lanes_per_warp,
                             ctx.line_size, is_store=True,
                             value=iteration + 10),
            )
            phases.append(KernelLaunch(f"sr.iter{iteration}", body))
        return phases


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _pad_to(programs: List[WarpProgram], warps: int) -> List[WarpProgram]:
    """Extend a warp-program list with empty programs up to *warps*."""
    if len(programs) > warps:
        raise ValueError(f"got {len(programs)} programs for {warps} warps")
    return programs + [WarpProgram() for _ in range(warps - len(programs))]
