"""Unit + property tests for the set-associative cache array."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import SetAssociativeCache


def make_cache(size=8 * 1024, ways=4, line=128, replacement="lru"):
    return SetAssociativeCache("test", size, ways, line, replacement)


class TestGeometry:
    def test_set_count(self):
        cache = make_cache(8 * 1024, 4, 128)
        assert cache.num_sets == 16

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache("bad", 1000, 4, 128)


class TestLookupAndFill:
    def test_cold_miss(self):
        cache = make_cache()
        assert cache.lookup(0x1000) is None
        assert cache.misses == 1
        assert cache.compulsory_misses == 1

    def test_hit_after_fill(self):
        cache = make_cache()
        cache.fill(0x1000, "V", 0)
        line = cache.lookup(0x1000)
        assert line is not None
        assert cache.hits == 1

    def test_same_line_different_offsets_hit(self):
        cache = make_cache()
        cache.fill(0x1000, "V", 0)
        assert cache.lookup(0x1004) is not None
        assert cache.lookup(0x107F) is not None

    def test_probe_has_no_side_effects(self):
        cache = make_cache()
        cache.probe(0x1000)
        assert cache.accesses == 0

    def test_double_fill_rejected(self):
        cache = make_cache()
        cache.fill(0x1000, "V", 0)
        with pytest.raises(ValueError):
            cache.fill(0x1040, "V", 0)  # same line

    def test_refetch_after_eviction_not_compulsory(self):
        cache = make_cache(size=512, ways=1, line=128)  # 4 sets
        cache.lookup(0x0)
        cache.fill(0x0, "V", 0)
        conflicting = 4 * 128  # same set as 0x0
        cache.fill(conflicting, "V", 0)  # evicts 0x0
        assert cache.lookup(0x0) is None
        assert cache.compulsory_misses == 1  # second miss is a conflict


class TestEviction:
    def test_victim_returned(self):
        cache = make_cache(size=512, ways=1, line=128)
        cache.fill(0x0, "V", 0)
        victim = cache.fill(4 * 128, "V", 1)
        assert victim is not None
        address, line = victim
        assert address == 0x0
        assert line.valid

    def test_no_victim_when_space(self):
        cache = make_cache()
        assert cache.fill(0x1000, "V", 0) is None

    def test_victim_preserves_dirty_and_data(self):
        cache = make_cache(size=512, ways=1, line=128)
        cache.fill(0x0, "MM", 0, data={0: 42}, dirty=True)
        _, victim = cache.fill(4 * 128, "V", 1)
        assert victim.dirty
        assert victim.data == {0: 42}

    def test_writeback_counter(self):
        cache = make_cache(size=512, ways=1, line=128)
        cache.fill(0x0, "MM", 0, dirty=True)
        cache.fill(4 * 128, "V", 1)
        assert cache.stats.counter("writebacks").value == 1

    def test_pre_victim_hook_runs_before_copy(self):
        cache = make_cache(size=512, ways=1, line=128)
        cache.fill(0x0, "MM", 0, data={0: 1}, dirty=True)

        def flush(address, line):
            line.data[1] = 99  # a newer word arrives just in time

        cache.pre_victim = flush
        _, victim = cache.fill(4 * 128, "V", 1)
        assert victim.data[1] == 99

    def test_lru_victim_selection(self):
        cache = make_cache(size=512, ways=2, line=128)  # 2 sets
        set_stride = 2 * 128
        cache.fill(0 * set_stride, "V", 0)
        cache.fill(1 * set_stride, "V", 0)
        cache.lookup(0)  # refresh the first line
        victim_addr, _ = cache.fill(2 * set_stride, "V", 1)
        assert victim_addr == set_stride


class TestInvalidate:
    def test_invalidate_returns_copy(self):
        cache = make_cache()
        cache.fill(0x1000, "V", 0, data={0: 7})
        removed = cache.invalidate(0x1000)
        assert removed.data == {0: 7}
        assert cache.probe(0x1000) is None

    def test_invalidate_missing_returns_none(self):
        assert make_cache().invalidate(0x1000) is None

    def test_flash_invalidate(self):
        cache = make_cache()
        for index in range(10):
            cache.fill(index * 128, "V", 0)
        assert cache.flash_invalidate() == 10
        assert cache.resident_lines() == []

    def test_invalidated_way_reused_first(self):
        cache = make_cache(size=512, ways=2, line=128)
        set_stride = 2 * 128
        cache.fill(0, "V", 0)
        cache.fill(set_stride, "V", 0)
        cache.invalidate(0)
        assert cache.fill(2 * set_stride, "V", 1) is None  # no eviction


class TestFreeWay:
    def test_full_set(self):
        cache = make_cache(size=512, ways=1, line=128)
        cache.fill(0, "V", 0)
        assert cache.fill(128, "V", 0) is None     # different set: free
        victim = cache.fill(4 * 128, "V", 0)       # same set: full
        assert victim is not None and victim[0] == 0


class TestStatistics:
    def test_miss_rate(self):
        cache = make_cache()
        cache.lookup(0)           # miss
        cache.fill(0, "V", 0)
        cache.lookup(0)           # hit
        assert cache.miss_rate == 0.5

    def test_miss_rate_empty(self):
        assert make_cache().miss_rate == 0.0

    def test_resident_lines(self):
        cache = make_cache()
        cache.fill(0x1000, "V", 0)
        cache.fill(0x2000, "V", 0)
        addresses = {addr for addr, _ in cache.resident_lines()}
        assert addresses == {0x1000, 0x2000}


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                max_size=300))
def test_property_occupancy_never_exceeds_capacity(line_numbers):
    """Filling arbitrary lines never exceeds capacity or loses accounting."""
    cache = SetAssociativeCache("prop", 2048, 2, 128)  # 16 lines capacity
    for number in line_numbers:
        address = number * 128
        if cache.lookup(address) is None:
            cache.fill(address, "V", 0)
    assert len(cache.resident_lines()) <= 16
    assert cache.accesses == len(line_numbers)
    assert cache.hits + cache.misses == cache.accesses


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=31), min_size=1,
                max_size=200))
def test_property_resident_line_always_hits(line_numbers):
    """A line reported resident must hit on the next lookup."""
    cache = SetAssociativeCache("prop", 4096, 4, 128)
    for number in line_numbers:
        address = number * 128
        resident = {addr for addr, _ in cache.resident_lines()}
        hit = cache.lookup(address) is not None
        assert hit == ((address & ~127) in resident)
        if not hit:
            cache.fill(address, "V", 0)
