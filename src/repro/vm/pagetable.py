"""Page table and physical frame allocation.

A flat (dictionary-backed) page table maps virtual page numbers to
physical frame numbers.  Frames come from a bump allocator over the
simulated DRAM, so virtually contiguous buffers are physically
contiguous — matching what syscall-emulation gem5 produces and keeping
cache-set and DRAM-bank behaviour realistic for streaming workloads.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.utils.bitops import is_power_of_two, log2_exact

#: 4 KiB pages throughout (gem5 syscall-emulation default).
PAGE_SIZE = 4096
_PAGE_SHIFT = log2_exact(PAGE_SIZE)


class PageFaultError(KeyError):
    """Raised when translating an unmapped virtual address."""

    def __init__(self, virtual_address: int) -> None:
        super().__init__(virtual_address)
        self.virtual_address = virtual_address

    def __str__(self) -> str:
        return f"page fault at VA {self.virtual_address:#x}"


class OutOfMemoryError(RuntimeError):
    """Raised when physical memory is exhausted."""


class PhysicalFrameAllocator:
    """Bump allocator handing out physical frames in address order."""

    def __init__(self, memory_size_bytes: int,
                 page_size: int = PAGE_SIZE) -> None:
        if not is_power_of_two(page_size):
            raise ValueError(f"page size must be a power of two: {page_size}")
        if memory_size_bytes % page_size != 0:
            raise ValueError("memory size must be page-aligned")
        self.page_size = page_size
        self.total_frames = memory_size_bytes // page_size
        self._next_frame = 0

    def allocate(self) -> int:
        """Return the next free physical frame number."""
        if self._next_frame >= self.total_frames:
            raise OutOfMemoryError(
                f"physical memory exhausted ({self.total_frames} frames)")
        frame = self._next_frame
        self._next_frame += 1
        return frame


class PageTable:
    """Flat VPN→PFN map with demand paging."""

    def __init__(self, frame_allocator: PhysicalFrameAllocator) -> None:
        self._frames = frame_allocator
        self._map: Dict[int, int] = {}
        self.page_size = frame_allocator.page_size
        self._shift = log2_exact(self.page_size)

    def vpn(self, virtual_address: int) -> int:
        return virtual_address >> self._shift

    def map_page(self, vpn: int, pfn: Optional[int] = None) -> int:
        """Map *vpn* to *pfn* (or a freshly allocated frame); return pfn."""
        if vpn in self._map:
            raise ValueError(f"VPN {vpn:#x} already mapped")
        if pfn is None:
            pfn = self._frames.allocate()
        self._map[vpn] = pfn
        return pfn

    def translate(self, virtual_address: int) -> int:
        """VA → PA.  Raises :class:`PageFaultError` when unmapped."""
        vpn = virtual_address >> self._shift
        pfn = self._map.get(vpn)
        if pfn is None:
            raise PageFaultError(virtual_address)
        offset = virtual_address & (self.page_size - 1)
        return (pfn << self._shift) | offset

    def translate_or_map(self, virtual_address: int) -> int:
        """Translate, demand-mapping the page on first touch."""
        vpn = virtual_address >> self._shift
        pfn = self._map.get(vpn)
        if pfn is None:
            pfn = self.map_page(vpn)
        offset = virtual_address & (self.page_size - 1)
        return (pfn << self._shift) | offset

    def __len__(self) -> int:
        return len(self._map)
