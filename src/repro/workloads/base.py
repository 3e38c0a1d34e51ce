"""Workload abstractions.

A :class:`Workload` builds its phase list against a
:class:`BuildContext` supplied by the system: the context's ``alloc``
callable performs mode-appropriate allocation (heap under CCSM,
reserved-window ``mmap`` under direct store — exactly the difference the
paper's source translator introduces), and returns the buffer's base
virtual address for the trace generator to use.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.workloads.trace import precompile_phases

#: alloc(name, size_bytes, gpu_accessed) -> base virtual address
AllocFn = Callable[[str, int, bool], int]


@dataclass
class BuildContext:
    """Everything a workload generator needs from the system."""

    alloc: AllocFn
    line_size: int = 128
    num_sms: int = 16
    lanes_per_warp: int = 32
    word_size: int = 4
    seed: int = 12345
    #: optional fixed-address allocation:
    #: ``alloc_at(name, window_address, size) -> base VA``.  Used by
    #: translator-driven workloads to place buffers exactly where the
    #: §III-C translator's ``mmap(MAP_FIXED)`` statements put them
    #: (falls back to ``alloc`` when the mode does not home buffers).
    alloc_at: Optional[Callable[[str, int, int], int]] = None


class Workload(ABC):
    """One benchmark at one input size.

    Attributes mirror the paper's Table II columns: the two-letter code,
    the input size label, the suite, and whether the kernel uses the
    GPU's software-managed shared memory (which keeps its inner loops
    out of the L2).
    """

    #: Table II code name, e.g. ``"BP"``
    code: str = "??"
    #: full benchmark name
    name: str = "unnamed"
    #: suite per Table II
    suite: str = ""
    #: Table II "Shared" column
    uses_shared_memory: bool = False

    def __init__(self, input_size: str = "small") -> None:
        if input_size not in ("small", "big"):
            raise ValueError(
                f"input_size must be 'small' or 'big', got {input_size!r}")
        self.input_size = input_size

    @abstractmethod
    def build(self, ctx: BuildContext) -> List[object]:
        """Produce the phase list (CpuPhase / KernelLaunch objects)."""

    def build_phases(self, ctx: BuildContext) -> List[object]:
        """Build the phase list, then precompile warp lane addresses.

        This is the entry point the system uses: after :meth:`build`
        returns, every kernel memory op gets its coalesced line list
        attached for *ctx.line_size*
        (:func:`repro.workloads.trace.precompile_phases`) so the SM
        never walks lanes in Python at issue time.
        """
        phases = self.build(ctx)
        precompile_phases(phases, ctx.line_size)
        return phases

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.code}, {self.input_size})"
