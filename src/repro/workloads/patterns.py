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

The GPU builders emit every memory op with its coalesced line list
precompiled, so the SM never walks lanes at issue time.  A one-line
row (stream and broadcast patterns) is a ``range`` of lane addresses
whose line list comes straight from its line base; divergent rows
(strided and gather patterns) are tuples, coalesced once at build time.

Trace pieces are immutable once built and shared within one build.
:meth:`repro.workloads.base.Workload.build_phases` opens a pool
(:func:`shared_ops`) for the duration of :meth:`~Workload.build`; inside
it, equal pieces are one object:

* the ``(row, lines)`` pairs of a consecutive-word sweep, keyed by
  ``(base, num_lines, lanes, line_size)`` — a load and a store of the
  same line share one row and one line list;
* the memory ops of a sweep, keyed by that key plus ``(is_store,
  value)`` — a load sweep repeated pass after pass is one list of ops,
  while stores of different values stay distinct;
* compute and shared-memory bubbles, keyed by ``(kind, cycles)``.

Strided and gather rows are fresh tuples that never repeat, so they are
not pooled.  The pool lives in a :class:`~contextvars.ContextVar`, so
builds on different threads never share objects; a helper called
outside a build creates fresh objects on every call.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.workloads.trace import (
    CpuOp,
    OpKind,
    WarpOp,
    WarpProgram,
    coalesce_addresses,
    coalesce_rows,
)

WORD = 4
#: CPU produce-granularity: one trace store covers 32 bytes
CPU_STORE_BYTES = 32

#: the open build's pool of shared trace pieces (module docstring), or
#: None outside a build
_POOL: ContextVar[Optional[Dict[tuple, object]]] = ContextVar(
    "trace_op_pool", default=None)


@contextmanager
def shared_ops() -> Iterator[None]:
    """Share equal trace pieces among the helpers called in this block."""
    token = _POOL.set({})
    try:
        yield
    finally:
        _POOL.reset(token)


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

def _bubble(kind: OpKind, cycles: int) -> WarpOp:
    pool = _POOL.get()
    if pool is None:
        return WarpOp(kind, cycles=cycles)
    key = (kind, cycles)
    op = pool.get(key)
    if op is None:
        op = pool[key] = WarpOp(kind, cycles=cycles)
    return op


def compute_op(cycles: int) -> WarpOp:
    """A compute bubble of *cycles*, shared with equal ones in a build."""
    return _bubble(OpKind.COMPUTE, cycles)


def shmem_op(cycles: int) -> WarpOp:
    """A shared-memory burst of *cycles*, shared with equal ones in a
    build."""
    return _bubble(OpKind.SHMEM, cycles)


def _mem_op(row: Sequence[int], is_store: bool, value: Optional[int],
            lines: List[int], line_size: int) -> WarpOp:
    """A load/store op over one lane row with precompiled lines."""
    if is_store:
        return WarpOp(OpKind.STORE, addresses=row, value=value,
                      lines=lines, lines_size=line_size)
    return WarpOp(OpKind.LOAD, addresses=row,
                  lines=lines, lines_size=line_size)


def _line_rows(base: int, num_lines: int, lanes: int, line_size: int
               ) -> List[Tuple[range, List[int]]]:
    """One consecutive-word lane row per line, with its coalesced lines.

    Row *i* starts at line *i*'s base.  A row that stays inside one line
    (the usual case: 32 lanes × 4 bytes = one 128-byte line) takes its
    line list straight from that base; a row that crosses a line
    boundary is coalesced lane by lane.
    """
    line_mask = ~(line_size - 1)
    span = (lanes - 1) * WORD
    rows = []
    for line_base in range(base, base + num_lines * line_size, line_size):
        row = range(line_base, line_base + lanes * WORD, WORD)
        if line_base & line_mask == (line_base + span) & line_mask:
            rows.append((row, [line_base & line_mask]))
        else:
            rows.append((row, coalesce_addresses(row, line_size)))
    return rows


def _line_ops(base: int, num_lines: int, lanes: int, line_size: int,
              is_store: bool, value: Optional[int]) -> List[WarpOp]:
    """One memory op per line of a consecutive-word sweep, in line order.

    Inside a build the rows, line lists and ops come from the build's
    pool (module docstring), and so does the returned list: callers
    copy from it and never mutate it.
    """
    pool = _POOL.get()
    if pool is None:  # outside a build: a pool for this call only
        pool = {}
    rows_key = (base, num_lines, lanes, line_size)
    rows = pool.get(rows_key)
    if rows is None:
        rows = pool[rows_key] = _line_rows(base, num_lines, lanes,
                                           line_size)
    ops_key = (rows_key, is_store, value)
    ops = pool.get(ops_key)
    if ops is None:
        ops = pool[ops_key] = [
            _mem_op(row, is_store, value, lines, line_size)
            for row, lines in rows]
    return ops


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
    programs = [WarpProgram() for _ in range(num_warps)]
    # ops are immutable once built, so each line's op group is created
    # once and the objects shared across reuse iterations
    bubbles: List[WarpOp] = []
    if compute_per_line:
        bubbles.append(compute_op(compute_per_line))
    if shmem_per_line:
        bubbles.append(shmem_op(shmem_per_line))
    per_line = [[op, *bubbles]
                for op in _line_ops(base, num_lines, lanes, line_size,
                                    is_store, value)]
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
    rows = [tuple(base + (flat * stride_lines % num_lines) * line_size
                  for flat in range(group * lanes, (group + 1) * lanes))
            for group in range(accesses)]
    lines_per_row = coalesce_rows(rows, line_size)
    compute = compute_op(compute_per_access) if compute_per_access else None
    for group, row in enumerate(rows):
        warp = programs[group % num_warps]
        warp.ops.append(_mem_op(row, is_store, value,
                                lines_per_row[group], line_size))
        if compute is not None:
            warp.ops.append(compute)
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
    # every warp re-reads the same rows/lines.  Ops are immutable once
    # built, so the whole sweep is created once and the op objects
    # shared across warps and repeats.
    loads = _line_ops(base, num_lines, lanes, line_size, False, None)
    if compute_per_line:
        compute = compute_op(compute_per_line)
        sweep = [op for load in loads for op in (load, compute)]
    else:
        sweep = loads
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
    flat = [base + (index % elements) * WORD for index in indices]
    compute = compute_op(compute_per_access) if compute_per_access else None
    for group_start in range(0, len(flat), lanes):
        warp = programs[(group_start // lanes) % num_warps]
        row = tuple(flat[group_start:group_start + lanes])
        warp.ops.append(_mem_op(row, False, None,
                                coalesce_addresses(row, line_size),
                                line_size))
        if compute is not None:
            warp.ops.append(compute)
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
