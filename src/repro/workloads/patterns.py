"""Reusable access-pattern builders for the benchmark trace generators.

Every Table II benchmark decomposes into a handful of structural
ingredients — a CPU produce loop, coalesced streams, strided
(divergence-heavy) sweeps, broadcast reads of shared tables, irregular
gathers over graph adjacency, scratchpad compute — and these helpers
build those ingredients so the per-benchmark generators stay short and
declarative.

Conventions:

* word size is 4 bytes; a 128-byte line holds 32 words — one fully
  coalesced warp access;
* the CPU produce loop issues one store per 32 bytes (a vectorised
  store), the granularity at which a producer core fills cache lines;
* GPU ops are emitted per warp; callers distribute warps over SMs via
  the kernel launch.

The GPU builders are NumPy-vectorized: each pattern computes one
(ops × lanes) address matrix with broadcasting, emits ops whose
``addresses`` are contiguous row views into it, and precompiles every
op's coalesced line list (:func:`repro.workloads.trace.coalesce_rows`)
so the SM never walks lanes in Python at issue time.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

import numpy as np

from repro.workloads.trace import (
    CpuOp,
    OpKind,
    WarpOp,
    WarpProgram,
    coalesce_rows,
)

WORD = 4
#: CPU produce-granularity: one trace store covers 32 bytes
CPU_STORE_BYTES = 32


# ----------------------------------------------------------------------
# CPU-side patterns
# ----------------------------------------------------------------------

def cpu_produce(base: int, nbytes: int, value_seed: int = 1,
                gen_cycles: int = 10) -> List[CpuOp]:
    """CPU writes a buffer front to back (the produce phase).

    One store per :data:`CPU_STORE_BYTES`; *gen_cycles* rides on each
    store as issue delay, modelling the per-element generation work
    (random init, parsing, arithmetic) every real produce loop does.
    """
    return [CpuOp(OpKind.STORE, base + offset, value_seed + offset,
                  gen_cycles)
            for offset in range(0, nbytes, CPU_STORE_BYTES)]


def cpu_consume(base: int, nbytes: int,
                stride_bytes: int = 4096) -> List[CpuOp]:
    """CPU samples a result buffer (checksum-style verification)."""
    return [CpuOp.load(base + offset)
            for offset in range(0, nbytes, stride_bytes)]


# ----------------------------------------------------------------------
# GPU-side patterns
# ----------------------------------------------------------------------

def _mem_op(row, is_store: bool, value: Optional[int],
            lines: List[int], line_size: int) -> WarpOp:
    """A load/store op over a matrix row with precompiled lines."""
    if is_store:
        return WarpOp(OpKind.STORE, addresses=row, value=value,
                      lines=lines, lines_size=line_size)
    return WarpOp(OpKind.LOAD, addresses=row,
                  lines=lines, lines_size=line_size)


def _line_matrix(base: int, num_lines: int, lanes: int,
                 line_size: int) -> "np.ndarray":
    """Address matrix for one access per line: row *i* covers line *i*."""
    line_bases = base + np.arange(num_lines, dtype=np.int64) * line_size
    return line_bases[:, None] + np.arange(lanes, dtype=np.int64) * WORD


def stream_warps(base: int, nbytes: int, num_warps: int,
                 lanes: int = 32, line_size: int = 128,
                 is_store: bool = False, value: Optional[int] = None,
                 compute_per_line: int = 0,
                 shmem_per_line: int = 0,
                 reuse: int = 1) -> List[WarpProgram]:
    """Coalesced streaming: warps stripe across the buffer's lines.

    Warp *w* touches lines ``w, w+W, w+2W, …`` — the canonical grid-stride
    loop, fully coalesced.  *reuse* > 1 repeats the whole sweep (iterative
    kernels re-reading their input).
    """
    num_lines = max(1, nbytes // line_size)
    matrix = _line_matrix(base, num_lines, lanes, line_size)
    lines_per_row = coalesce_rows(matrix, line_size)
    programs = [WarpProgram() for _ in range(num_warps)]
    # ops are immutable once built, so each line's op group is created
    # once and the objects shared across reuse iterations
    per_line: List[List[WarpOp]] = []
    for line_index in range(num_lines):
        group = [_mem_op(matrix[line_index], is_store, value,
                         lines_per_row[line_index], line_size)]
        if compute_per_line:
            group.append(WarpOp.compute(compute_per_line))
        if shmem_per_line:
            group.append(WarpOp.shmem(shmem_per_line))
        per_line.append(group)
    for _iteration in range(reuse):
        for line_index in range(num_lines):
            programs[line_index % num_warps].ops.extend(
                per_line[line_index])
    return programs


def strided_warps(base: int, nbytes: int, num_warps: int,
                  stride_lines: int, lanes: int = 32,
                  line_size: int = 128, is_store: bool = False,
                  value: Optional[int] = None,
                  compute_per_access: int = 0) -> List[WarpProgram]:
    """Divergent access: each lane of a warp touches a *different* line.

    Models column-major / transposed traversal: one warp instruction
    fans out into up to 32 transactions (matrix transpose's read or
    write side, NW's column walks).
    """
    num_lines = max(1, nbytes // line_size)
    programs = [WarpProgram() for _ in range(num_warps)]
    accesses = max(1, num_lines // lanes)
    flat = np.arange(accesses * lanes, dtype=np.int64)
    line_indices = (flat * stride_lines % num_lines).reshape(
        accesses, lanes)
    matrix = base + line_indices * line_size
    lines_per_row = coalesce_rows(matrix, line_size)
    for group in range(accesses):
        warp = programs[group % num_warps]
        warp.ops.append(_mem_op(matrix[group], is_store, value,
                                lines_per_row[group], line_size))
        if compute_per_access:
            warp.ops.append(WarpOp.compute(compute_per_access))
    return programs


def broadcast_warps(base: int, nbytes: int, num_warps: int,
                    lanes: int = 32, line_size: int = 128,
                    repeats: int = 1,
                    compute_per_line: int = 0) -> List[WarpProgram]:
    """Every warp reads the *same* region (shared tables, centroids).

    The first warp to touch a line misses; the other ``num_warps - 1``
    hit in the L2 (or their own L1), producing the high access count /
    low miss count signature of GA, KM, and LV.
    """
    num_lines = max(1, nbytes // line_size)
    programs = [WarpProgram() for _ in range(num_warps)]
    # one shared matrix: every warp re-reads the same rows/lines.
    # Ops are immutable once built, so the whole sweep is created
    # once and the op objects shared across warps and repeats.
    matrix = _line_matrix(base, num_lines, lanes, line_size)
    lines_per_row = coalesce_rows(matrix, line_size)
    sweep: List[WarpOp] = []
    for line_index in range(num_lines):
        sweep.append(_mem_op(matrix[line_index], False, None,
                             lines_per_row[line_index], line_size))
        if compute_per_line:
            sweep.append(WarpOp.compute(compute_per_line))
    for warp in programs:
        for _repeat in range(repeats):
            warp.ops.extend(sweep)
    return programs


def gather_warps(base: int, nbytes: int, num_warps: int,
                 indices: Sequence[int], lanes: int = 32,
                 line_size: int = 128,
                 compute_per_access: int = 0) -> List[WarpProgram]:
    """Irregular gather: lane addresses come from an index list.

    *indices* are element indices into the buffer (graph neighbour ids);
    consecutive lanes take consecutive indices, so coalescing quality is
    whatever the index stream provides — exactly how Pannotia kernels
    read node data through edge lists.
    """
    elements = max(1, nbytes // WORD)
    programs = [WarpProgram() for _ in range(num_warps)]
    flat = base + (np.asarray(indices, dtype=np.int64)
                   % elements) * WORD
    line_mask = ~(line_size - 1)
    # one bulk conversion; per-group work is then pure list slicing
    masked_list = (flat & line_mask).tolist()
    for group_start in range(0, len(indices), lanes):
        warp = programs[(group_start // lanes) % num_warps]
        row = flat[group_start:group_start + lanes]
        lines = list(dict.fromkeys(
            masked_list[group_start:group_start + lanes]))
        warp.ops.append(WarpOp(OpKind.LOAD, addresses=row,
                               lines=lines, lines_size=line_size))
        if compute_per_access:
            warp.ops.append(WarpOp.compute(compute_per_access))
    return programs


def shmem_compute_warps(num_warps: int, bursts: int,
                        cycles_per_burst: int) -> List[WarpProgram]:
    """Pure scratchpad compute (the inner loops of tiled kernels)."""
    programs = [WarpProgram() for _ in range(num_warps)]
    burst_op = WarpOp.shmem(cycles_per_burst)  # immutable: share it
    for warp in programs:
        warp.ops.extend([burst_op] * bursts)
    return programs


def merge_warp_programs(*groups: List[WarpProgram]) -> List[WarpProgram]:
    """Concatenate per-warp op lists position-wise.

    All groups must have the same warp count; warp *i*'s ops from each
    group run in sequence — the way a real kernel interleaves its
    load / compute / store stages per thread block.
    """
    lengths = {len(group) for group in groups}
    if len(lengths) != 1:
        raise ValueError(
            f"cannot merge warp groups of differing sizes {sorted(lengths)}")
    merged = [WarpProgram() for _ in range(lengths.pop())]
    for group in groups:
        for target, source in zip(merged, group):
            target.ops.extend(source.ops)
    return merged


def interleave_warp_programs(*groups: List[WarpProgram]
                             ) -> List[WarpProgram]:
    """Interleave groups op by op (load-compute-store pipelining)."""
    lengths = {len(group) for group in groups}
    if len(lengths) != 1:
        raise ValueError("warp-group sizes differ")
    merged = [WarpProgram() for _ in range(lengths.pop())]
    for warp_index, target in enumerate(merged):
        cursors = [0] * len(groups)
        remaining = sum(len(group[warp_index].ops) for group in groups)
        while remaining:
            for group_index, group in enumerate(groups):
                ops = group[warp_index].ops
                if cursors[group_index] < len(ops):
                    target.ops.append(ops[cursors[group_index]])
                    cursors[group_index] += 1
                    remaining -= 1
    return merged


def random_indices(count: int, universe: int, seed: int) -> List[int]:
    """Deterministic irregular index stream."""
    rng = random.Random(seed)
    return [rng.randrange(max(1, universe)) for _ in range(count)]
