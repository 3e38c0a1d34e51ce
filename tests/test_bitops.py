"""Unit tests for repro.utils.bitops."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bitops import (
    align_up,
    is_power_of_two,
    log2_exact,
    mask,
)


class TestIsPowerOfTwo:
    def test_powers(self):
        for exponent in range(20):
            assert is_power_of_two(1 << exponent)

    def test_non_powers(self):
        for value in (0, 3, 5, 6, 7, 9, 12, 100, 1023):
            assert not is_power_of_two(value)

    def test_negative(self):
        assert not is_power_of_two(-4)


class TestLog2Exact:
    def test_exact_values(self):
        assert log2_exact(1) == 0
        assert log2_exact(2) == 1
        assert log2_exact(128) == 7
        assert log2_exact(1 << 20) == 20

    def test_rejects_non_power(self):
        with pytest.raises(ValueError):
            log2_exact(3)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            log2_exact(0)

    @given(st.integers(min_value=0, max_value=62))
    def test_roundtrip(self, exponent):
        assert log2_exact(1 << exponent) == exponent


class TestMask:
    def test_values(self):
        assert mask(0) == 0
        assert mask(1) == 1
        assert mask(8) == 0xFF
        assert mask(16) == 0xFFFF

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)


class TestAlignment:
    def test_align_up(self):
        assert align_up(1000, 128) == 1024
        assert align_up(128, 128) == 128
        assert align_up(1, 4096) == 4096

    def test_non_power_alignment_rejected(self):
        with pytest.raises(ValueError):
            align_up(100, 3)
        with pytest.raises(ValueError):
            align_up(100, 100)

    @given(st.integers(min_value=0, max_value=2 ** 40),
           st.integers(min_value=0, max_value=16))
    def test_bounds(self, value, exponent):
        alignment = 1 << exponent
        up = align_up(value, alignment)
        assert value <= up < value + alignment
        assert up % alignment == 0
