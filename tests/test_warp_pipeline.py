"""Warp memory-pipeline equivalence tests.

Each batch entry point of the GPU memory pipeline must be
*bit-identical* to its per-item contract — same line lists, same
statistics, same LRU motion:

* the coalescer's per-lane loop over every lane container the trace
  builders emit (lists, the "scalar" side below, against the same lanes
  as tuples and, where consecutive, ranges) against
  :func:`~repro.workloads.trace.coalesce_addresses`, including the edge
  cases empty lane list, all-one-line, fully-divergent fan-out and
  unaligned addresses, plus a property-style randomized sweep with a
  fixed seed;
* precompiled op lines against coalescing the lanes at issue time;
* TLB/MMU/cache batch calls against per-address calls (the per-address
  methods also serve the CPU side).

End-to-end, the suite points are checked against the committed
``perfbench/reference.json`` (``tests/test_path_equivalence.py``).
"""

import random

import pytest

from repro.gpu.coalescer import Coalescer
from repro.mem.cache import SetAssociativeCache
from repro.vm.mmu import MMU
from repro.vm.pagetable import PAGE_SIZE, PageTable, PhysicalFrameAllocator
from repro.vm.tlb import TLB
from repro.workloads.trace import (
    OpKind,
    WarpOp,
    WarpProgram,
    coalesce_addresses,
    coalesce_rows,
    precompile_op,
)


def make_coalescer(line_size: int = 128) -> Coalescer:
    return Coalescer("test.coalescer", line_size)


def coalescer_stats(coalescer: Coalescer):
    return (coalescer.stats.counter("instructions").value,
            coalescer.stats.counter("transactions").value)


class TestCoalescerEdgeCases:
    """The edge cases, identical for list, tuple and range lanes."""

    def both(self, lanes):
        scalar = make_coalescer()
        tupled = make_coalescer()
        result_scalar = scalar.coalesce(list(lanes))
        result_tuple = tupled.coalesce(tuple(lanes))
        assert result_scalar == result_tuple == coalesce_addresses(lanes, 128)
        assert coalescer_stats(scalar) == coalescer_stats(tupled)
        return result_scalar

    def test_empty_lane_list(self):
        assert self.both([]) == []
        assert self.both(range(0)) == []
        # an empty access records nothing, precompiled or not
        coalescer = make_coalescer()
        coalescer.coalesce([])
        op = WarpOp.load([])
        precompile_op(op, 128)
        assert coalescer.coalesce_op(op) == []
        assert coalescer_stats(coalescer) == (0, 0)

    def test_all_lanes_one_line(self):
        lanes = [0x2000 + 4 * lane for lane in range(32)]
        assert self.both(lanes) == [0x2000]
        assert self.both(range(0x2000, 0x2080, 4)) == [0x2000]

    def test_fully_divergent_fanout(self):
        lanes = [0x8000 + 128 * lane for lane in range(32)]
        assert self.both(lanes) == lanes
        assert self.both(range(0x8000, 0x9000, 128)) == lanes

    def test_unaligned_addresses(self):
        lanes = [0x1003, 0x10FF, 0x1101, 0x2001, 0x1086]
        assert self.both(lanes) == [0x1000, 0x1080, 0x1100, 0x2000]

    def test_first_lane_order_preserved(self):
        # later lanes revisit earlier lines: order must follow first touch
        lanes = [0x3000, 0x5000, 0x3004, 0x1000, 0x5010]
        assert self.both(lanes) == [0x3000, 0x5000, 0x1000]

    def test_line_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            Coalescer("bad", line_size=96)

    def test_stats_count_instructions_and_transactions(self):
        coalescer = make_coalescer()
        coalescer.coalesce([0x0, 0x80, 0x100])
        coalescer.coalesce([0x0, 0x4])
        assert coalescer_stats(coalescer) == (2, 4)


class TestCoalescerRandomized:
    """Property-style comparison over a fixed-seed random stream."""

    SEED = 20260806

    def lane_lists(self):
        rng = random.Random(self.SEED)
        for _ in range(200):
            count = rng.randrange(1, 33)
            span = rng.choice([1 << 10, 1 << 14, 1 << 20])
            yield [rng.randrange(span) for _ in range(count)]

    def test_scalar_vectorized_and_reference_agree(self):
        """List lanes and the same lanes as a tuple (the container the
        strided and gather builders emit) give the reference lines."""
        scalar = make_coalescer()
        tupled = make_coalescer()
        for lanes in self.lane_lists():
            expected = coalesce_addresses(lanes, 128)
            assert scalar.coalesce(lanes) == expected
            assert tupled.coalesce(tuple(lanes)) == expected
        assert coalescer_stats(scalar) == coalescer_stats(tupled)

    def test_precompiled_ops_match_scalar(self):
        scalar = make_coalescer()
        precompiled = make_coalescer()
        for lanes in self.lane_lists():
            op = WarpOp(OpKind.LOAD, addresses=tuple(lanes))
            precompile_op(op, 128)
            assert op.lines_size == 128
            assert precompiled.coalesce_op(op) == scalar.coalesce(lanes)
        assert coalescer_stats(scalar) == coalescer_stats(precompiled)

    def test_coalesce_rows_matches_reference(self):
        rng = random.Random(self.SEED)
        matrix = [tuple(rng.randrange(1 << 16) for _ in range(32))
                  for _ in range(64)]
        # consecutive-word rows, one inside a line and one crossing it
        matrix += [range(0x4000, 0x4080, 4), range(0x4040, 0x40C0, 4)]
        rows = coalesce_rows(matrix, 128)
        assert rows == [coalesce_addresses(list(row), 128)
                        for row in matrix]
        assert rows[-2:] == [[0x4000], [0x4000, 0x4080]]

    def test_precompile_is_idempotent(self):
        op = WarpOp.load([0x0, 0x4, 0x100])
        precompile_op(op, 128)
        first = op.lines
        precompile_op(op, 128)
        assert op.lines is first
        # a different geometry recomputes
        program = WarpProgram(ops=[op])
        program.precompile(64)
        assert op.lines_size == 64
        assert op.lines == coalesce_addresses(op.addresses, 64)

    def test_compute_ops_are_skipped(self):
        op = WarpOp.compute(5)
        precompile_op(op, 128)
        assert op.lines is None and op.lines_size == 0


def make_tlb(entries: int = 4) -> TLB:
    return TLB("test.tlb", num_entries=entries)


def tlb_stats(tlb: TLB):
    return (tlb.stats.counter("hits").value,
            tlb.stats.counter("misses").value)


def reference_resolve(tlb: TLB, addresses, pfn_of):
    """Per-address lookup()+insert() — the semantic contract."""
    pfns = []
    for address in addresses:
        pfn = tlb.lookup(address)
        if pfn is None:
            pfn = pfn_of(address)
            tlb.insert(address, pfn)
        pfns.append(pfn)
    return pfns


class TestTlbBatch:
    """resolve_batch / resolve_one vs per-address lookup+insert."""

    def test_batch_matches_reference_with_evictions(self):
        rng = random.Random(7)
        addresses = [rng.randrange(16) * PAGE_SIZE + rng.randrange(PAGE_SIZE)
                     for _ in range(300)]
        pfn_of = lambda va: (va // PAGE_SIZE) * 7 + 1
        reference, batch = make_tlb(), make_tlb()
        # interleave batches of varying size so LRU state is exercised
        # mid-stream, not only at the end
        cursor = 0
        expected_all, got_all = [], []
        while cursor < len(addresses):
            size = rng.randrange(1, 8)
            chunk = addresses[cursor:cursor + size]
            cursor += size
            expected_all += reference_resolve(reference, chunk, pfn_of)
            got_all += batch.resolve_batch(chunk, pfn_of)
        assert got_all == expected_all
        assert tlb_stats(batch) == tlb_stats(reference)
        assert list(batch._entries.items()) == \
            list(reference._entries.items())

    def test_repeated_page_counts_miss_then_hits(self):
        tlb = make_tlb()
        pfns = tlb.resolve_batch([0x1000, 0x1004, 0x1008],
                                 lambda _va: 42)
        assert pfns == [42, 42, 42]
        assert tlb_stats(tlb) == (2, 1)

    def test_nonconsecutive_repeat_touches_lru(self):
        # [A, B, A]: A's second visit must re-promote A above B
        tlb = make_tlb(entries=2)
        tlb.resolve_batch([0x0000, 0x1000, 0x0004], lambda va: va // 0x1000)
        # inserting a third page must now evict B (page 1), not A
        tlb.resolve_batch([0x2000], lambda va: va // 0x1000)
        assert 0x0000 in tlb and 0x2000 in tlb and 0x1000 not in tlb

    def test_resolve_one_matches_lookup_insert(self):
        reference, one = make_tlb(entries=2), make_tlb(entries=2)
        pfn_of = lambda va: va // PAGE_SIZE + 9
        for address in [0x0, 0x1000, 0x0, 0x2000, 0x1000, 0x2004]:
            expected = reference_resolve(reference, [address], pfn_of)[0]
            assert one.resolve_one(address, pfn_of) == expected
        assert tlb_stats(one) == tlb_stats(reference)
        assert list(one._entries.items()) == \
            list(reference._entries.items())


def make_mmu(entries: int = 8) -> MMU:
    table = PageTable(PhysicalFrameAllocator(1 << 24))
    return MMU("test.mmu", table, TLB("test.tlb", entries))


class TestMmuBatch:
    def test_translate_batch_matches_scalar(self):
        rng = random.Random(11)
        addresses = [rng.randrange(1 << 20) for _ in range(200)]
        scalar, batch = make_mmu(), make_mmu()
        expected = [scalar.translate(va).physical_address
                    for va in addresses]
        got = []
        cursor = 0
        while cursor < len(addresses):
            size = rng.randrange(1, 5)
            got += batch.translate_batch(addresses[cursor:cursor + size])
            cursor += size
        assert got == expected
        for name in ("translations", "page_table_walks"):
            assert batch.stats.counter(name).value == \
                scalar.stats.counter(name).value
        assert tlb_stats(batch.tlb) == tlb_stats(scalar.tlb)

    def test_empty_batch(self):
        assert make_mmu().translate_batch([]) == []


class TestCacheBatch:
    def make_cache(self) -> SetAssociativeCache:
        return SetAssociativeCache("test.l1", 4 * 1024, ways=2,
                                   line_size=128)

    def addresses(self):
        rng = random.Random(13)
        return [rng.randrange(64 * 1024) for _ in range(400)]

    def test_lookup_batch_matches_scalar(self):
        reference, batch = self.make_cache(), self.make_cache()
        rng = random.Random(17)
        stream = self.addresses()
        cursor = 0
        while cursor < len(stream):
            size = rng.randrange(1, 6)
            chunk = stream[cursor:cursor + size]
            cursor += size
            expected = [reference.lookup(address) for address in chunk]
            got = batch.lookup_batch(chunk)
            assert [line is None for line in got] == \
                [line is None for line in expected]
            # misses fill both caches the same way
            for address, line in zip(chunk, expected):
                if line is None and reference.probe(address) is None:
                    reference.fill(address, "V", 0)
            for address, line in zip(chunk, got):
                if line is None and batch.probe(address) is None:
                    batch.fill(address, "V", 0)
        assert (batch.accesses, batch.hits, batch.misses,
                batch.compulsory_misses) == \
            (reference.accesses, reference.hits, reference.misses,
             reference.compulsory_misses)

    def test_probe_batch_has_no_side_effects(self):
        cache = self.make_cache()
        cache.fill(0x1000, "V", 0)
        before = (cache.accesses, cache.hits, cache.misses)
        probed = cache.probe_batch([0x1000, 0x1004, 0x2000])
        assert probed[0] is probed[1] is not None
        assert probed[2] is None
        assert (cache.accesses, cache.hits, cache.misses) == before
