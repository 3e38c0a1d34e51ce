"""Trace format shared by the CPU and GPU models.

A workload is a list of *phases*, executed in order:

* :class:`CpuPhase` — the CPU produce (or post-process) phase: a
  sequence of loads, stores, and compute bubbles executed by the
  in-order core;
* :class:`KernelLaunch` — a GPU kernel: a set of
  :class:`WarpProgram` traces distributed round-robin over the SMs, each
  a sequence of (coalescable) vector memory ops, compute bubbles, and
  shared-memory (scratchpad) ops.

Addresses in traces are *virtual*; the CPU MMU and GPU MMU translate
them at execution time, which is what lets the same trace run under
CCSM (heap addresses) and direct store (reserved-window addresses) —
the workload builder simply asks the allocator for the buffer bases.

Lane addresses of a :class:`WarpOp` may be a plain tuple or a contiguous
NumPy row (the vectorized trace builders in
:mod:`repro.workloads.patterns` emit views into one per-pattern address
matrix).  Memory ops can additionally carry their *precompiled* coalesced
line list — the exact first-lane-order output of
:meth:`repro.gpu.coalescer.Coalescer.coalesce` — computed once at
workload build time so the SM's issue path only records statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np


class OpKind(Enum):
    """Operation flavours appearing in traces."""

    LOAD = "load"
    STORE = "store"
    COMPUTE = "compute"
    SHMEM = "shmem"  # GPU software-managed shared memory access


@dataclass(slots=True)
class CpuOp:
    """One in-order CPU operation."""

    kind: OpKind
    address: int = 0
    value: Optional[int] = None
    cycles: int = 0

    @staticmethod
    def load(address: int) -> "CpuOp":
        return CpuOp(OpKind.LOAD, address=address)

    @staticmethod
    def store(address: int, value: Optional[int] = None) -> "CpuOp":
        return CpuOp(OpKind.STORE, address=address, value=value)

    @staticmethod
    def compute(cycles: int) -> "CpuOp":
        return CpuOp(OpKind.COMPUTE, cycles=cycles)


@dataclass(slots=True)
class WarpOp:
    """One warp-wide GPU operation.

    For memory ops, *addresses* holds the per-lane byte addresses of one
    vector instruction (a tuple, or a NumPy row from the vectorized
    builders); the coalescer merges them into line requests.  When
    *lines* is set it is the precompiled coalesce result for line size
    *lines_size* — distinct line addresses in first-lane order.
    """

    kind: OpKind
    addresses: Sequence[int] = ()
    value: Optional[int] = None
    cycles: int = 0
    #: precompiled coalesced line addresses (first-lane order), or None
    lines: Optional[List[int]] = None
    #: the line size *lines* was computed for (0 = not precompiled)
    lines_size: int = 0

    @staticmethod
    def load(addresses: Sequence[int]) -> "WarpOp":
        return WarpOp(OpKind.LOAD, addresses=tuple(addresses))

    @staticmethod
    def store(addresses: Sequence[int],
              value: Optional[int] = None) -> "WarpOp":
        return WarpOp(OpKind.STORE, addresses=tuple(addresses), value=value)

    @staticmethod
    def compute(cycles: int) -> "WarpOp":
        return WarpOp(OpKind.COMPUTE, cycles=cycles)

    @staticmethod
    def shmem(cycles: int) -> "WarpOp":
        """A burst of shared-memory (scratchpad) work costing *cycles*."""
        return WarpOp(OpKind.SHMEM, cycles=cycles)


#: op kinds that carry lane addresses through the memory pipeline
_MEMORY_KINDS = (OpKind.LOAD, OpKind.STORE)


def coalesce_addresses(lane_addresses: Sequence[int],
                       line_size: int) -> List[int]:
    """Reference coalescing: distinct line addresses, first-lane order.

    This is the semantic contract every coalescing path (per-lane loop,
    NumPy batch, precompiled lines) must reproduce exactly.
    """
    line_mask = ~(line_size - 1)
    return list(dict.fromkeys(int(address) & line_mask
                              for address in lane_addresses))


def coalesce_rows(matrix: "np.ndarray", line_size: int) -> List[List[int]]:
    """Per-row coalescing of an (ops, lanes) address matrix.

    One vectorized pass masks every lane to its line and classifies rows
    that collapse to a single line (the fully-coalesced common case);
    only divergent rows pay a per-row dedup.  Row order and within-row
    first-lane order match :func:`coalesce_addresses`.
    """
    lines = matrix & ~(line_size - 1)
    firsts = lines[:, 0].tolist()
    uniform = (lines == lines[:, :1]).all(axis=1)
    if bool(uniform.all()):
        return [[first] for first in firsts]
    out: List[List[int]] = []
    rows = lines.tolist()
    for index, is_uniform in enumerate(uniform.tolist()):
        if is_uniform:
            out.append([firsts[index]])
        else:
            out.append(list(dict.fromkeys(rows[index])))
    return out


def precompile_op(op: WarpOp, line_size: int) -> None:
    """Attach the precompiled coalesced line list to one memory op."""
    if op.kind not in _MEMORY_KINDS or op.lines_size == line_size:
        return
    addresses = op.addresses
    if isinstance(addresses, np.ndarray):
        masked = addresses & ~(line_size - 1)
        op.lines = list(dict.fromkeys(masked.tolist()))
    else:
        op.lines = coalesce_addresses(addresses, line_size)
    op.lines_size = line_size


@dataclass
class WarpProgram:
    """The op trace of one warp."""

    ops: List[WarpOp] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)

    def precompile(self, line_size: int) -> None:
        """Precompute coalesced lines for every memory op (idempotent)."""
        for op in self.ops:
            precompile_op(op, line_size)


@dataclass
class CpuPhase:
    """A CPU execution phase."""

    name: str
    ops: List[CpuOp] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)


@dataclass
class KernelLaunch:
    """A GPU kernel launch: warps plus launch semantics.

    GPU L1 caches are flash-invalidated when the kernel starts (the
    software coherence convention the paper's baseline uses).
    """

    name: str
    warps: List[WarpProgram] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.warps)


#: A phase is either a CPU phase or a kernel launch.
Phase = object


def precompile_phases(phases: Sequence[object], line_size: int) -> None:
    """Precompile coalesced lines for every kernel in a phase list.

    Called by the system before execution so kernels built by hand —
    without the vectorized pattern helpers — still skip the per-lane
    coalescing loop at issue time.
    """
    for phase in phases:
        if isinstance(phase, KernelLaunch):
            for warp in phase.warps:
                warp.precompile(line_size)
