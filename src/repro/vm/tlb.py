"""The Translation Look-aside Buffer with the direct-store detector.

This is the hardware structure the paper modifies (§III-E): alongside
the usual VPN→PFN cache, the TLB performs *"an address comparison to
detect a high-order virtual address"* and, on a match, *"sends a signal
to the MMU indicating to the CPU's L1 cache controller to forward the
store onto the GPU L2 cache."*

The detector here is exactly that comparator, evaluated inline by
:meth:`~repro.vm.mmu.MMU.translate`: it checks the reserved window's
high-order bits and nothing else — it adds no lookup state, mirroring
the paper's "wiring to a logic gate" overhead claim (§IV-E).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional, Sequence, Tuple

from repro.utils.statistics import StatsRegistry
from repro.vm.mmap import DIRECT_STORE_WINDOW_BASE, DIRECT_STORE_WINDOW_SIZE
from repro.vm.pagetable import PAGE_SIZE


class TLB:
    """A fully-associative, LRU translation cache.

    Args:
        name: statistics name.
        num_entries: TLB capacity in page translations.
        detector_enabled: whether the direct-store comparator is wired up
            (it is only present on the CPU-side TLB; GPU TLBs translate
            normally).
    """

    def __init__(self, name: str, num_entries: int = 64,
                 detector_enabled: bool = False,
                 window_base: int = DIRECT_STORE_WINDOW_BASE,
                 window_size: int = DIRECT_STORE_WINDOW_SIZE) -> None:
        if num_entries <= 0:
            raise ValueError(f"{name}: TLB needs at least one entry")
        self.name = name
        self.num_entries = num_entries
        self.detector_enabled = detector_enabled
        self.window_base = window_base
        self.window_size = window_size
        self._entries: "OrderedDict[int, int]" = OrderedDict()
        self.stats = StatsRegistry(name)
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._ds_detections = self.stats.counter(
            "direct_store_detections",
            "stores recognised as targeting the reserved window")

    def lookup(self, virtual_address: int) -> Optional[int]:
        """VPN lookup; returns the PFN on a hit, ``None`` on a miss."""
        vpn = virtual_address // PAGE_SIZE
        pfn = self._entries.get(vpn)
        if pfn is None:
            self._misses.increment()
            return None
        self._entries.move_to_end(vpn)
        self._hits.increment()
        return pfn

    def resolve_batch(self, virtual_addresses: Sequence[int],
                      on_miss: Callable[[int], int]) -> List[int]:
        """Resolve a batch of VAs to PFNs in one pass.

        Statistics and LRU state are identical to calling
        :meth:`lookup` (and :meth:`insert` on each miss) per address.
        ``on_miss(virtual_address)`` supplies the PFN — typically the
        MMU's page-table walk — and the result is filled like
        :meth:`insert`.  Consecutive same-page addresses are resolved
        with zero map touches: after the first access the entry is
        already most-recently-used, so only the hit counter moves.
        """
        entries = self._entries
        get = entries.get
        move_to_end = entries.move_to_end
        capacity = self.num_entries
        hits = misses = 0
        pfns: List[int] = []
        last_vpn = -1
        last_pfn = 0
        try:
            for virtual_address in virtual_addresses:
                vpn = virtual_address // PAGE_SIZE
                if vpn == last_vpn:
                    hits += 1
                    pfns.append(last_pfn)
                    continue
                pfn = get(vpn)
                if pfn is None:
                    misses += 1
                    pfn = on_miss(virtual_address)
                    if len(entries) >= capacity:
                        entries.popitem(last=False)
                    entries[vpn] = pfn
                else:
                    hits += 1
                    move_to_end(vpn)
                last_vpn = vpn
                last_pfn = pfn
                pfns.append(pfn)
        finally:
            self._hits.value += hits
            self._misses.value += misses
        return pfns

    def resolve_one(self, virtual_address: int,
                    on_miss: Callable[[int], int]) -> int:
        """Single-address :meth:`resolve_batch` without loop setup.

        The GPU's streaming warps coalesce most ops to exactly one line,
        so the batch path's dominant case is a one-element sequence;
        this entry point keeps that case cheap.  Stats and LRU motion
        are identical to :meth:`lookup` + :meth:`insert`.
        """
        entries = self._entries
        vpn = virtual_address // PAGE_SIZE
        pfn = entries.get(vpn)
        if pfn is None:
            self._misses.value += 1
            pfn = on_miss(virtual_address)
            if len(entries) >= self.num_entries:
                entries.popitem(last=False)
            entries[vpn] = pfn
        else:
            self._hits.value += 1
            entries.move_to_end(vpn)
        return pfn

    def insert(self, virtual_address: int, pfn: int) -> None:
        """Fill a translation, evicting LRU when full."""
        vpn = virtual_address // PAGE_SIZE
        if vpn in self._entries:
            self._entries.move_to_end(vpn)
            self._entries[vpn] = pfn
            return
        if len(self._entries) >= self.num_entries:
            self._entries.popitem(last=False)
        self._entries[vpn] = pfn

    def flush(self) -> None:
        """Drop every translation (context switch / shootdown)."""
        self._entries.clear()

    def in_window(self, virtual_address: int) -> bool:
        """Pure address check: is *virtual_address* in the reserved window?

        Loads from the window are not forwarded (the detector fires only
        on stores), but they must still bypass the CPU caches — the
        window "can never be cached on the CPU side" — so the MMU needs
        window membership independent of the store signal.
        """
        return (self.window_base <= virtual_address
                < self.window_base + self.window_size)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, virtual_address: int) -> bool:
        return (virtual_address // PAGE_SIZE) in self._entries
