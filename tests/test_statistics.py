"""Unit tests for repro.utils.statistics."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.statistics import (
    Counter,
    Histogram,
    StatsRegistry,
    geometric_mean,
)


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_increment(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(5)
        assert counter.value == 6

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").increment(-1)

    def test_reset(self):
        counter = Counter("c")
        counter.increment(3)
        counter.reset()
        assert counter.value == 0


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram("h", [10, 100])
        hist.record(5)
        hist.record(50)
        hist.record(5000)
        assert hist.buckets == [1, 1, 1]

    def test_mean_min_max(self):
        hist = Histogram("h", [10])
        for value in (2, 4, 6):
            hist.record(value)
        assert hist.mean == 4
        assert hist.min_value == 2
        assert hist.max_value == 6

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", [])

    def test_boundary_inclusive(self):
        hist = Histogram("h", [10])
        hist.record(10)
        assert hist.buckets == [1, 0]


class TestStatsRegistry:
    def test_counter_identity(self):
        registry = StatsRegistry("unit")
        assert registry.counter("x") is registry.counter("x")

    def test_qualified_names(self):
        registry = StatsRegistry("gpu.l2")
        assert registry.counter("misses").name == "gpu.l2.misses"

    def test_dump(self):
        registry = StatsRegistry("u")
        registry.counter("a").increment(2)
        registry.histogram("h", [10]).record(4)
        snapshot = registry.dump()
        assert snapshot == {"u.a": 2.0, "u.h.mean": 4.0, "u.h.samples": 1.0}

    def test_reset_clears_everything(self):
        registry = StatsRegistry("u")
        registry.counter("a").increment()
        registry.histogram("h", [1]).record(5)
        registry.reset()
        snapshot = registry.dump()
        assert snapshot["u.a"] == 0.0
        assert snapshot["u.h.samples"] == 0.0

    def test_reset_keeps_held_histogram_registered(self):
        """Components keep the histogram they created; a sample recorded
        through that reference after ``reset()`` must reach ``dump()``."""
        registry = StatsRegistry("u")
        held = registry.histogram("h", [10, 100])
        held.record(5)
        registry.reset()
        assert registry.histogram("h", [10, 100]) is held
        held.record(50)
        snapshot = registry.dump()
        assert snapshot["u.h.samples"] == 1.0
        assert snapshot["u.h.mean"] == 50.0
        assert held.buckets == [0, 1, 0]
        assert (held.min_value, held.max_value) == (50, 50)


class TestGeometricMean:
    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_single(self):
        assert geometric_mean([4.0]) == pytest.approx(4.0)

    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1,
                    max_size=20))
    def test_between_min_and_max(self, values):
        mean = geometric_mean(values)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9

    @given(st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=1,
                    max_size=10))
    def test_log_identity(self, values):
        mean = geometric_mean(values)
        expected = math.exp(sum(math.log(v) for v in values) / len(values))
        assert mean == pytest.approx(expected)
