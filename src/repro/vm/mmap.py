"""Virtual-address-space management: ``malloc`` heap and ``mmap``.

The paper's translator (§III-C/D) rewrites ``malloc``/``cudaMalloc`` of
GPU-consumed buffers into ``mmap(addr, len, ..., MAP_FIXED, ...)`` at a
*reserved high-order address window*, chosen so the TLB can recognise
direct-store data by comparing high-order address bits.

:class:`MmapAllocator` models the process address space: a conventional
heap for ordinary allocations and the reserved window for direct-store
allocations.  ``MAP_FIXED`` requests must not overlap existing regions —
the translator guarantees this by bumping the next fixed address by each
variable's size (§III-C), and we enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.utils.bitops import align_up
from repro.vm.pagetable import PAGE_SIZE

#: mmap flag: place the mapping exactly at the requested address.
MAP_FIXED = 0x10

#: Base of the reserved direct-store window.  Bit 46 set — a high-order
#: address no ordinary heap/stack allocation reaches, so the TLB detector
#: reduces to one comparator on the top address bits (paper §III-E).
DIRECT_STORE_WINDOW_BASE = 0x4000_0000_0000

#: Size of the reserved window (256 GiB of virtual space).
DIRECT_STORE_WINDOW_SIZE = 0x40_0000_0000

#: Base of the conventional heap.
HEAP_BASE = 0x1000_0000


class MmapError(RuntimeError):
    """Invalid mapping request (overlap, misalignment, bad range)."""


@dataclass(frozen=True)
class Region:
    """One mapped virtual region."""

    start: int
    length: int
    name: str
    direct_store: bool

    @property
    def end(self) -> int:
        """One past the last mapped byte."""
        return self.start + self.length

    def overlaps(self, other: "Region") -> bool:
        return self.start < other.end and other.start < self.end


class MmapAllocator:
    """Process address-space manager with a direct-store window.

    ``malloc`` carves from the heap; ``mmap_fixed_direct_store`` places
    buffers in the reserved window exactly as the paper's translator
    emits them, bumping a cursor so variables never overlap.
    """

    def __init__(self) -> None:
        self._regions: List[Region] = []
        self._heap_cursor = HEAP_BASE
        self._window_cursor = DIRECT_STORE_WINDOW_BASE

    # ------------------------------------------------------------------
    # allocation entry points
    # ------------------------------------------------------------------

    def malloc(self, length: int, name: str = "") -> Region:
        """Ordinary heap allocation (page-aligned, like glibc large mallocs)."""
        region = self._place(self._heap_cursor, length, name,
                             direct_store=False)
        self._heap_cursor = region.end
        return region

    def mmap(self, length: int, addr: Optional[int] = None, flags: int = 0,
             name: str = "") -> Region:
        """POSIX-flavoured mmap.

        Without ``MAP_FIXED`` the kernel chooses the address (we use the
        heap cursor).  With ``MAP_FIXED`` the mapping lands exactly at
        *addr*; overlap with an existing region raises :class:`MmapError`
        (we model the translator's guarantee, not ``MAP_FIXED``'s
        clobbering semantics, so a clobber is a translator bug).
        """
        if flags & MAP_FIXED:
            if addr is None:
                raise MmapError("MAP_FIXED requires an address")
            if addr % PAGE_SIZE != 0:
                raise MmapError(f"MAP_FIXED address {addr:#x} not page-aligned")
            direct = self.in_direct_store_window(addr)
            region = self._place(addr, length, name, direct_store=direct)
            if direct and region.end > self._window_cursor:
                self._window_cursor = region.end
            return region
        return self.malloc(length, name)

    def mmap_fixed_direct_store(self, length: int, name: str = "") -> Region:
        """Allocate the next direct-store buffer (what the translator emits).

        The window cursor advances by the page-aligned length so that
        "there is no overlapping starting virtual addresses for all
        variables" (§III-C).
        """
        region = self._place(self._window_cursor, length, name,
                             direct_store=True)
        self._window_cursor = region.end
        return region

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @staticmethod
    def in_direct_store_window(virtual_address: int) -> bool:
        """The TLB's high-order comparator, as pure address arithmetic."""
        return (DIRECT_STORE_WINDOW_BASE <= virtual_address
                < DIRECT_STORE_WINDOW_BASE + DIRECT_STORE_WINDOW_SIZE)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _place(self, start: int, length: int, name: str,
               direct_store: bool) -> Region:
        if length <= 0:
            raise MmapError(f"mapping length must be positive, got {length}")
        if start < 0:
            raise MmapError(f"negative address {start:#x}")
        aligned_length = align_up(length, PAGE_SIZE)
        if direct_store:
            window_end = DIRECT_STORE_WINDOW_BASE + DIRECT_STORE_WINDOW_SIZE
            if start + aligned_length > window_end:
                raise MmapError("direct-store window exhausted")
        region = Region(start, aligned_length, name, direct_store)
        for existing in self._regions:
            if region.overlaps(existing):
                raise MmapError(
                    f"mapping {name!r} at [{region.start:#x}, {region.end:#x})"
                    f" overlaps {existing.name!r} at "
                    f"[{existing.start:#x}, {existing.end:#x})")
        self._regions.append(region)
        return region
