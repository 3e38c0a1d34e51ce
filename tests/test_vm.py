"""Unit tests for the virtual-memory subsystem: page table, mmap, TLB, MMU."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.vm.mmap import (
    DIRECT_STORE_WINDOW_BASE,
    DIRECT_STORE_WINDOW_SIZE,
    MAP_FIXED,
    MmapAllocator,
    MmapError,
)
from repro.vm.mmu import MMU
from repro.vm.pagetable import (
    PAGE_SIZE,
    OutOfMemoryError,
    PageFaultError,
    PageTable,
    PhysicalFrameAllocator,
)
from repro.vm.tlb import TLB


def make_page_table(memory=16 * 1024 * 1024):
    return PageTable(PhysicalFrameAllocator(memory))


def detects(tlb, virtual_address, is_store):
    """Did *tlb*'s direct-store comparator fire on this access?  The
    MMU evaluates it inline on every translation."""
    mmu = MMU("m", make_page_table(), tlb)
    return mmu.translate(virtual_address, is_store).direct_store


class TestFrameAllocator:
    def test_sequential_frames(self):
        frames = PhysicalFrameAllocator(4 * PAGE_SIZE)
        assert [frames.allocate() for _ in range(4)] == [0, 1, 2, 3]

    def test_exhaustion(self):
        frames = PhysicalFrameAllocator(PAGE_SIZE)
        frames.allocate()
        with pytest.raises(OutOfMemoryError):
            frames.allocate()

    def test_unaligned_size_rejected(self):
        with pytest.raises(ValueError):
            PhysicalFrameAllocator(1000)


class TestPageTable:
    def test_translate_unmapped_faults(self):
        with pytest.raises(PageFaultError):
            make_page_table().translate(0x1000)

    def test_map_then_translate(self):
        table = make_page_table()
        pfn = table.map_page(table.vpn(0x5000))
        assert table.translate(0x5123) == pfn * PAGE_SIZE + 0x123

    def test_double_map_rejected(self):
        table = make_page_table()
        table.map_page(5)
        with pytest.raises(ValueError):
            table.map_page(5)

    def test_translate_or_map_demand_pages(self):
        table = make_page_table()
        with pytest.raises(PageFaultError):
            table.translate(0x7777)
        physical = table.translate_or_map(0x7777)
        assert table.translate(0x7777) == physical

    def test_offsets_preserved(self):
        table = make_page_table()
        base = table.translate_or_map(0x4000)
        assert table.translate(0x4FFF) == base + 0xFFF


class TestMmapAllocator:
    def test_malloc_non_overlapping(self):
        allocator = MmapAllocator()
        first = allocator.malloc(5000, "a")
        second = allocator.malloc(100, "b")
        assert not first.overlaps(second)

    def test_malloc_page_aligned_length(self):
        region = MmapAllocator().malloc(100)
        assert region.length == PAGE_SIZE

    def test_fixed_mapping(self):
        allocator = MmapAllocator()
        region = allocator.mmap(8192, addr=0x70000000, flags=MAP_FIXED)
        assert region.start == 0x70000000

    def test_fixed_requires_address(self):
        with pytest.raises(MmapError):
            MmapAllocator().mmap(4096, flags=MAP_FIXED)

    def test_fixed_unaligned_rejected(self):
        with pytest.raises(MmapError):
            MmapAllocator().mmap(4096, addr=0x1001, flags=MAP_FIXED)

    def test_overlap_rejected(self):
        allocator = MmapAllocator()
        allocator.mmap(8192, addr=0x70000000, flags=MAP_FIXED)
        with pytest.raises(MmapError):
            allocator.mmap(4096, addr=0x70001000, flags=MAP_FIXED)

    def test_window_allocations_bump_cursor(self):
        allocator = MmapAllocator()
        first = allocator.mmap_fixed_direct_store(100, "x1")
        second = allocator.mmap_fixed_direct_store(100, "x2")
        assert first.start == DIRECT_STORE_WINDOW_BASE
        assert second.start == first.end
        assert first.direct_store and second.direct_store

    def test_window_membership(self):
        assert MmapAllocator.in_direct_store_window(
            DIRECT_STORE_WINDOW_BASE)
        assert MmapAllocator.in_direct_store_window(
            DIRECT_STORE_WINDOW_BASE + DIRECT_STORE_WINDOW_SIZE - 1)
        assert not MmapAllocator.in_direct_store_window(0x1000_0000)

    def test_direct_store_regions_listed(self):
        allocator = MmapAllocator()
        heap = allocator.malloc(4096, "heap")
        window = allocator.mmap_fixed_direct_store(4096, "win")
        assert not heap.direct_store
        assert not MmapAllocator.in_direct_store_window(heap.start)
        assert window.direct_store
        assert MmapAllocator.in_direct_store_window(window.start)

    def test_zero_length_rejected(self):
        with pytest.raises(MmapError):
            MmapAllocator().malloc(0)

    @given(st.lists(st.integers(min_value=1, max_value=100_000),
                    min_size=2, max_size=20))
    def test_property_window_allocations_never_overlap(self, sizes):
        allocator = MmapAllocator()
        regions = [allocator.mmap_fixed_direct_store(size)
                   for size in sizes]
        for index, first in enumerate(regions):
            for second in regions[index + 1:]:
                assert not first.overlaps(second)


class TestTLB:
    def test_miss_then_hit(self):
        tlb = TLB("t", 4)
        assert tlb.lookup(0x1000) is None
        tlb.insert(0x1000, 7)
        assert tlb.lookup(0x1234) == 7

    def test_lru_eviction(self):
        tlb = TLB("t", 2)
        tlb.insert(0x1000, 1)
        tlb.insert(0x2000, 2)
        tlb.lookup(0x1000)       # refresh the first entry
        tlb.insert(0x3000, 3)    # evicts 0x2000
        assert tlb.lookup(0x2000) is None
        assert tlb.lookup(0x1000) == 1

    def test_flush(self):
        tlb = TLB("t", 4)
        tlb.insert(0x1000, 1)
        tlb.flush()
        assert tlb.lookup(0x1000) is None

    def test_hit_rate(self):
        tlb = TLB("t", 4)
        tlb.lookup(0x1000)
        tlb.insert(0x1000, 1)
        tlb.lookup(0x1000)
        assert tlb.stats.counter("hits").value == 1
        assert tlb.stats.counter("misses").value == 1

    def test_detector_fires_on_window_store(self):
        tlb = TLB("t", 4, detector_enabled=True)
        assert detects(tlb, DIRECT_STORE_WINDOW_BASE + 64, is_store=True)
        assert tlb.stats.counter("direct_store_detections").value == 1

    def test_detector_ignores_loads(self):
        tlb = TLB("t", 4, detector_enabled=True)
        assert not detects(tlb, DIRECT_STORE_WINDOW_BASE, is_store=False)
        assert tlb.stats.counter("direct_store_detections").value == 0

    def test_detector_ignores_heap_stores(self):
        tlb = TLB("t", 4, detector_enabled=True)
        assert not detects(tlb, 0x1000_0000, is_store=True)

    def test_detector_disabled(self):
        tlb = TLB("t", 4, detector_enabled=False)
        assert not detects(tlb, DIRECT_STORE_WINDOW_BASE, is_store=True)

    def test_in_window_independent_of_detector(self):
        tlb = TLB("t", 4, detector_enabled=False)
        assert tlb.in_window(DIRECT_STORE_WINDOW_BASE + 100)
        assert not tlb.in_window(0x2000)


class TestMMU:
    def test_demand_mapping(self):
        mmu = MMU("m", make_page_table(), TLB("t", 8))
        translation = mmu.translate(0x12345)
        assert not translation.tlb_hit
        assert translation.walk_cycles == 20
        # second access hits the TLB with the same frame
        again = mmu.translate(0x12345)
        assert again.tlb_hit
        assert again.physical_address == translation.physical_address

    def test_store_signal_propagates(self):
        table = make_page_table()
        mmu = MMU("m", table, TLB("t", 8, detector_enabled=True))
        translation = mmu.translate(DIRECT_STORE_WINDOW_BASE,
                                    is_store=True)
        assert translation.direct_store
        assert translation.ds_window

    def test_window_load_flagged_but_not_forwarded(self):
        mmu = MMU("m", make_page_table(),
                  TLB("t", 8, detector_enabled=True))
        translation = mmu.translate(DIRECT_STORE_WINDOW_BASE,
                                    is_store=False)
        assert not translation.direct_store
        assert translation.ds_window

    def test_offsets_preserved(self):
        mmu = MMU("m", make_page_table(), TLB("t", 8))
        translation = mmu.translate(0x5123)
        assert translation.physical_address % PAGE_SIZE == 0x123
