"""Unit tests for the DRAM timing model."""

import pytest

from repro.mem.dram import DramConfig, DramModel


def make_dram(**kwargs):
    return DramModel(DramConfig(size_bytes=64 * 1024 * 1024, **kwargs))


class TestConfig:
    def test_total_banks(self):
        config = DramConfig(num_channels=1, ranks_per_channel=2,
                            banks_per_rank=8)
        assert config.total_banks == 16

    def test_non_power_geometry_rejected(self):
        with pytest.raises(ValueError):
            DramConfig(banks_per_rank=6)


class TestAccessTiming:
    def test_first_access_is_row_empty(self):
        dram = make_dram()
        ready = dram.access(0, 0)
        expected = dram.clock.cycles_to_ticks(
            dram.config.t_rcd + dram.config.t_cas)
        assert ready == expected
        assert dram.stats.counter("row_empty").value == 1

    def test_same_row_hits(self):
        dram = make_dram()
        first = dram.access(0, 0)
        second = dram.access(64, first)  # same row
        assert dram.stats.counter("row_hits").value == 1
        # a row hit pays CAS only (after bank availability)
        assert second - max(first, 0) <= dram.clock.cycles_to_ticks(
            dram.config.t_cas + dram.config.t_burst)

    def test_row_conflict_pays_precharge(self):
        dram = make_dram()
        config = dram.config
        dram.access(0, 0)
        # same bank, different row: address at row_size * total_banks
        conflict = config.row_size_bytes * config.total_banks
        dram.access(conflict, 10 ** 6)
        assert dram.stats.counter("row_misses").value == 1

    def test_bank_serializes(self):
        dram = make_dram()
        first = dram.access(0, 0)
        second = dram.access(0, 0)  # same bank, issued at the same time
        assert second > first

    def test_different_banks_parallel(self):
        dram = make_dram()
        first = dram.access(0, 0)
        other_bank = dram.config.row_size_bytes  # next bank
        second = dram.access(other_bank, 0)
        assert second <= first + dram.clock.cycles_to_ticks(
            dram.config.t_rcd + dram.config.t_cas)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_dram().access(64 * 1024 * 1024, 0)

    def test_row_hit_rate(self):
        dram = make_dram()
        tick = dram.access(0, 0)
        for _ in range(9):
            tick = dram.access(0, tick)
        counter = dram.stats.counter
        assert counter("row_empty").value == 1
        assert counter("row_hits").value == 9
        assert counter("row_misses").value == 0


class TestPostedWrites:
    def test_posted_write_does_not_disturb_row(self):
        dram = make_dram()
        tick = dram.access(0, 0)
        conflict_row = dram.config.row_size_bytes * dram.config.total_banks
        dram.post_write(conflict_row, tick)
        dram.access(64, tick)  # original row
        assert dram.stats.counter("row_hits").value == 1

    def test_posted_write_counted(self):
        dram = make_dram()
        dram.post_write(0, 0)
        assert dram.stats.counter("writes").value == 1

    def test_posted_write_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_dram().post_write(1 << 40, 0)
