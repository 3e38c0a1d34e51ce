"""Registry of direct-store regions and their physical pages.

The TLB recognises direct-store data by *virtual* address (the reserved
high-order window); the coherence engine, which works in *physical*
addresses, needs the same knowledge to keep the CPU from caching homed
lines.  This registry is the bridge: when the system maps a window
buffer, its physical frames are recorded here, and the engine's
``may_cache`` predicate for the CPU agent consults
:meth:`DirectStoreRegionRegistry.is_ds_physical_line`.

(In hardware this attribute would live in the page-table entries; a
registry keyed by frame number is the software-simulator equivalent.)
"""

from __future__ import annotations

from typing import List, Set

from repro.vm.mmap import Region
from repro.vm.pagetable import PAGE_SIZE


class DirectStoreRegionRegistry:
    """Tracks every GPU-homed buffer and its physical frames."""

    def __init__(self, page_size: int = PAGE_SIZE) -> None:
        self.page_size = page_size
        self._regions: List[Region] = []
        self._pfns: Set[int] = set()

    def register(self, region: Region, pfns: List[int]) -> None:
        """Record a newly mapped window buffer and its frames."""
        if not region.direct_store:
            raise ValueError(
                f"region {region.name!r} is not in the direct-store window")
        self._regions.append(region)
        self._pfns.update(pfns)

    def is_ds_physical_line(self, line_address: int) -> bool:
        """Is this physical line part of a GPU-homed buffer?"""
        return (line_address // self.page_size) in self._pfns

    @property
    def total_bytes(self) -> int:
        return sum(region.length for region in self._regions)

    def __len__(self) -> int:
        return len(self._regions)
