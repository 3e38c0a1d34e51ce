"""The Memory Management Unit.

Ties a :class:`~repro.vm.tlb.TLB` to a demand-paged
:class:`~repro.vm.pagetable.PageTable` and surfaces the direct-store
signal (paper Fig. 2, left): every translation reports both the physical
address and whether the TLB's comparator fired, so the cache controller
knows to forward the store over the dedicated network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.telemetry.tracer import TRACER
from repro.utils.statistics import StatsRegistry
from repro.vm.pagetable import PAGE_SIZE, PageTable
from repro.vm.tlb import TLB


@dataclass(slots=True)
class Translation:
    """Result of one MMU translation.

    Slotted and unfrozen: translations are built on the per-access hot
    path, and the frozen-dataclass ``__setattr__`` round-trip per field
    was measurable there.  Treat instances as immutable regardless.
    """

    virtual_address: int
    physical_address: int
    tlb_hit: bool
    #: extra latency (in CPU cycles) charged for the page-table walk
    walk_cycles: int
    #: the TLB detector fired: forward this store to the GPU L2
    direct_store: bool
    #: the address lies in the reserved window (loads bypass CPU caches)
    ds_window: bool = False


class MMU:
    """Translates virtual addresses, demand-mapping pages on first touch.

    Args:
        name: statistics name.
        page_table: the process page table.
        tlb: the translation cache (with or without the DS detector).
        walk_cycles: page-table-walk penalty charged on a TLB miss.
    """

    def __init__(self, name: str, page_table: PageTable, tlb: TLB,
                 walk_cycles: int = 20) -> None:
        self.name = name
        self.page_table = page_table
        self.tlb = tlb
        self.walk_cycles = walk_cycles
        self.stats = StatsRegistry(name)
        self._translations = self.stats.counter("translations")
        self._walks = self.stats.counter("page_table_walks")
        # translate() does the TLB's detector compare, window compare
        # and VPN probe in place; the TLB's geometry is fixed once built
        self._detector_enabled = tlb.detector_enabled
        self._window_low = tlb.window_base
        self._window_high = tlb.window_base + tlb.window_size
        self._tlb_entries = tlb._entries
        self._tlb_hits = tlb._hits
        self._tlb_misses = tlb._misses
        self._ds_detections = tlb._ds_detections
        self._page_size = page_table.page_size

    def translate(self, virtual_address: int,
                  is_store: bool = False) -> Translation:
        """Translate one access; demand-map unmapped pages.

        Demand mapping stands in for the OS page-fault handler: gem5's
        syscall-emulation mode does the same, so first-touch latency is
        charged as a table walk rather than a full fault.

        The TLB's direct-store comparator (§III-E: a store into the
        reserved window, on a TLB with the detector wired), its window
        check and its VPN probe (:meth:`TLB.lookup`, then
        :meth:`TLB.insert` on a miss) are done inline, with the TLB's
        statistics, LRU motion and trace events: this runs once per CPU
        access.
        """
        self._translations.value += 1
        in_window = self._window_low <= virtual_address < self._window_high
        if in_window and is_store and self._detector_enabled:
            direct = True
            self._ds_detections.value += 1
            if TRACER.enabled:
                TRACER.instant("direct_store", "ds_detect", TRACER.now(),
                               track=self.tlb.name,
                               args={"va": virtual_address})
        else:
            direct = False
        page_size = self._page_size
        vpn = virtual_address // PAGE_SIZE
        entries = self._tlb_entries
        pfn = entries.get(vpn)
        if pfn is not None:
            entries.move_to_end(vpn)
            self._tlb_hits.value += 1
            return Translation(virtual_address,
                               pfn * page_size + virtual_address % page_size,
                               True, 0, direct, in_window)
        self._tlb_misses.value += 1
        self._walks.value += 1
        if TRACER.enabled:
            TRACER.instant("tlb", "walk", TRACER.now(), track=self.name,
                           args={"va": virtual_address})
        physical = self.page_table.translate_or_map(virtual_address)
        self.tlb.insert(virtual_address, physical // page_size)
        return Translation(virtual_address, physical, False,
                           self.walk_cycles, direct, in_window)

    def translate_batch(self, virtual_addresses: Sequence[int],
                        is_store: bool = False) -> List[int]:
        """Translate a batch of addresses; returns physical addresses.

        The batch path serves the GPU's coalesced line stream, which
        needs only the physical addresses — no
        :class:`Translation` objects are built, and same-page runs are
        resolved with a single page-table touch
        (:meth:`~repro.vm.tlb.TLB.resolve_batch`).  All counters
        (translations, walks, TLB hits/misses) and the TLB's LRU state
        end up identical to per-address :meth:`translate` calls.  TLBs
        with the direct-store detector wired (the CPU side) fall back to
        the scalar path so detector statistics stay exact.
        """
        if self.tlb.detector_enabled:
            return [self.translate(va, is_store).physical_address
                    for va in virtual_addresses]
        count = len(virtual_addresses)
        if count == 0:
            return []
        page_size = self.page_table.page_size
        if count == 1:
            # dominant case: a fully coalesced warp op is one line
            virtual_address = virtual_addresses[0]
            self._translations.value += 1
            pfn = self.tlb.resolve_one(virtual_address, self._walk_one)
            return [pfn * page_size + virtual_address % page_size]
        self._translations.increment(count)
        pfns = self.tlb.resolve_batch(virtual_addresses, self._walk_one)
        return [pfn * page_size + virtual_address % page_size
                for pfn, virtual_address
                in zip(pfns, virtual_addresses)]

    def _walk_one(self, virtual_address: int) -> int:
        """Page-table walk callback for the TLB's resolve paths."""
        self._walks.value += 1
        if TRACER.enabled:
            TRACER.instant("tlb", "walk", TRACER.now(), track=self.name,
                           args={"va": virtual_address})
        return (self.page_table.translate_or_map(virtual_address)
                // self.page_table.page_size)
