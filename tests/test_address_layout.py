"""Unit + property tests for address decomposition and slice mapping."""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import GpuConfig, SystemConfig
from repro.core.protocol_mode import CoherenceMode
from repro.core.system import IntegratedSystem
from repro.mem.address import AddressLayout


@functools.lru_cache(maxsize=None)
def _system(slices):
    config = SystemConfig(gpu=GpuConfig(l2_slices=slices))
    return IntegratedSystem(config, CoherenceMode.CCSM)


def slice_for_line(line_address, slices):
    """Index of the GPU L2 slice the system routes *line_address* to."""
    system = _system(slices)
    return system.slice_names.index(system._slice_for(line_address))


class TestAddressLayout:
    def test_line_address(self):
        layout = AddressLayout(128, 256)
        assert layout.line_address(0x1234) == 0x1200
        assert layout.line_address(0x1200) == 0x1200

    def test_offset(self):
        layout = AddressLayout(128, 256)
        assert layout.offset(0x1234) == 0x34

    def test_set_index_consecutive_lines(self):
        layout = AddressLayout(128, 256)
        assert layout.set_index(0) == 0
        assert layout.set_index(128) == 1
        assert layout.set_index(128 * 256) == 0  # wraps

    def test_tag(self):
        layout = AddressLayout(128, 256)
        assert layout.tag(128 * 256) == 1

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            AddressLayout(100, 256)
        with pytest.raises(ValueError):
            AddressLayout(128, 100)

    def test_rebuild_range_check(self):
        layout = AddressLayout(128, 4)
        with pytest.raises(ValueError):
            layout.rebuild(0, 4)

    @given(st.integers(min_value=0, max_value=2 ** 44 - 1))
    def test_roundtrip(self, address):
        layout = AddressLayout(128, 256)
        rebuilt = layout.rebuild(layout.tag(address),
                                 layout.set_index(address))
        assert rebuilt == layout.line_address(address)


class TestInterleavedLayout:
    """The sliced-GPU-L2 form: slice bits stripped from the index."""

    def test_consecutive_resident_lines_use_consecutive_sets(self):
        # slice 0 of 4 holds lines 0, 4, 8, ... which must index sets
        # 0, 1, 2, ... (the bug class this guards against left 3/4 of
        # the sets unused)
        layout = AddressLayout(128, 64, interleave=4, interleave_offset=0)
        for k in range(10):
            assert layout.set_index(k * 4 * 128) == k % 64

    def test_rebuild_restores_slice_bits(self):
        layout = AddressLayout(128, 64, interleave=4, interleave_offset=3)
        address = (7 * 4 + 3) * 128  # line number 31 -> slice 3
        rebuilt = layout.rebuild(layout.tag(address),
                                 layout.set_index(address))
        assert rebuilt == address

    def test_invalid_offset_rejected(self):
        with pytest.raises(ValueError):
            AddressLayout(128, 64, interleave=4, interleave_offset=4)

    def test_invalid_interleave_rejected(self):
        with pytest.raises(ValueError):
            AddressLayout(128, 64, interleave=3)

    @given(st.integers(min_value=0, max_value=2 ** 20),
           st.integers(min_value=0, max_value=3))
    def test_roundtrip_interleaved(self, local_line, offset):
        layout = AddressLayout(128, 64, interleave=4,
                               interleave_offset=offset)
        address = ((local_line * 4) + offset) * 128
        rebuilt = layout.rebuild(layout.tag(address),
                                 layout.set_index(address))
        assert rebuilt == address


class TestSliceForLine:
    def test_consecutive_lines_rotate(self):
        slices = [slice_for_line(line * 128, 4) for line in range(8)]
        assert slices == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_single_slice(self):
        assert slice_for_line(0x12345 * 128, 1) == 0

    def test_non_power_slices_rejected(self):
        with pytest.raises(ValueError):
            _system(3)

    @given(st.integers(min_value=0, max_value=2 ** 40))
    def test_offset_within_line_is_irrelevant(self, address):
        line = address & ~127
        assert slice_for_line(line, 4) == slice_for_line(line + 127, 4)
