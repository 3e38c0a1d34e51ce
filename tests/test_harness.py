"""Tests for the experiment harness (runner, experiments, reporting)."""

import dataclasses

import pytest

from repro.core.config import SystemConfig
from repro.core.protocol_mode import CoherenceMode
from repro.harness.experiments import (
    Fig4Row,
    Fig5Row,
    figure4,
    figure5,
    geomean_miss_rates,
    geomean_nonzero_speedup,
)
from repro.harness.parallel import compare_many
from repro.harness.reporting import ascii_bar_chart, format_table
from repro.harness.runner import run_benchmark
from repro.harness.sweep import expand_grid, sweep_config


def small_config(tiny_config):
    return dataclasses.replace(tiny_config, track_values=False)


class TestRunner:
    def test_run_benchmark(self, tiny_config):
        result = run_benchmark("VA", "small", CoherenceMode.CCSM,
                               small_config(tiny_config))
        assert result.total_ticks > 0
        assert result.workload == "VA/small"
        assert result.mode == "ccsm"

    def test_compare_modes(self, tiny_config):
        [comparison] = compare_many(["VA"], "small",
                                    small_config(tiny_config), jobs=1)
        assert comparison.code == "VA"
        assert comparison.speedup > 0
        assert comparison.speedup_percent == pytest.approx(
            (comparison.speedup - 1) * 100)
        assert 0 <= comparison.ccsm_miss_rate <= 1
        assert 0 <= comparison.ds_miss_rate <= 1

    def test_fresh_systems_per_run(self, tiny_config):
        config = small_config(tiny_config)
        first = run_benchmark("VA", "small", CoherenceMode.CCSM, config)
        second = run_benchmark("VA", "small", CoherenceMode.CCSM, config)
        assert first.total_ticks == second.total_ticks  # no carry-over


class TestExperiments:
    def test_figure4_rows(self, tiny_config):
        rows = figure4("small", small_config(tiny_config),
                       codes=["VA", "PT"])
        assert [row.code for row in rows] == ["VA", "PT"]
        assert all(isinstance(row, Fig4Row) for row in rows)

    def test_figure5_rows(self, tiny_config):
        rows = figure5("small", small_config(tiny_config), codes=["VA"])
        assert isinstance(rows[0], Fig5Row)
        assert rows[0].ds_miss_rate <= rows[0].ccsm_miss_rate

    def test_geomean_nonzero_filters(self):
        rows = [Fig4Row("A", 1.10), Fig4Row("B", 1.001), Fig4Row("C", 1.0)]
        assert geomean_nonzero_speedup(rows) == pytest.approx(1.10)

    def test_geomean_nonzero_all_zero(self):
        assert geomean_nonzero_speedup([Fig4Row("A", 1.0)]) == 1.0

    def test_geomean_miss_rates_excludes_zeros(self):
        rows = [Fig5Row("A", 0.1, 0.05), Fig5Row("B", 0.0, 0.0)]
        ccsm, ds = geomean_miss_rates(rows)
        assert ccsm == pytest.approx(0.1)
        assert ds == pytest.approx(0.05)

    def test_progress_callback(self, tiny_config):
        seen = []
        figure4("small", small_config(tiny_config), codes=["VA"],
                progress=seen.append)
        assert seen == ["VA"]

    def test_duplicate_codes_yield_equal_rows(self, tiny_config):
        rows = figure4("small", small_config(tiny_config),
                       codes=["VA", "VA"])
        assert [row.code for row in rows] == ["VA", "VA"]
        assert rows[0].speedup == rows[1].speedup

    def test_figure5_duplicate_codes(self, tiny_config):
        rows = figure5("small", small_config(tiny_config),
                       codes=["PT", "PT"])
        assert rows[0] == rows[1]

    def test_geomean_nonzero_empty_rows(self):
        assert geomean_nonzero_speedup([]) == 1.0

    def test_geomean_miss_rates_empty_rows(self):
        assert geomean_miss_rates([]) == (0.0, 0.0)


class TestExpandGrid:
    def test_insertion_order_expansion(self):
        grid = expand_grid({"a": [1, 2], "b": ["x", "y"]})
        assert grid == [{"a": 1, "b": "x"}, {"a": 1, "b": "y"},
                        {"a": 2, "b": "x"}, {"a": 2, "b": "y"}]

    def test_first_axis_is_slowest_moving(self):
        grid = expand_grid({"slow": [1, 2], "fast": [10, 20, 30]})
        assert [point["slow"] for point in grid] == [1, 1, 1, 2, 2, 2]

    def test_no_axes_yields_one_empty_point(self):
        assert expand_grid({}) == [{}]

    def test_empty_axis_yields_empty_sweep(self):
        assert expand_grid({"a": [1, 2], "b": []}) == []

    def test_duplicate_values_are_preserved(self):
        grid = expand_grid({"a": [1, 1]})
        assert grid == [{"a": 1}, {"a": 1}]

    def test_single_axis(self):
        assert expand_grid({"a": [3, 1, 2]}) == \
            [{"a": 3}, {"a": 1}, {"a": 2}]


class TestSweep:
    def test_sweep_applies_values(self, tiny_config):
        points = sweep_config(
            "VA", "small", [4, 16],
            lambda cfg, v: setattr(cfg.network, "ds_latency_cycles", v))
        assert [p.value for p in points] == [4, 16]
        assert all(p.speedup > 0 for p in points)

    def test_empty_values_run_nothing(self):
        assert sweep_config(
            "VA", "small", [],
            lambda cfg, v: setattr(cfg.network,
                                   "ds_latency_cycles", v)) == []

    def test_duplicate_values_yield_equal_points(self, tiny_config):
        points = sweep_config(
            "VA", "small", [8, 8],
            lambda cfg, v: setattr(cfg.network, "ds_latency_cycles", v),
            config=small_config(tiny_config))
        assert len(points) == 2
        assert points[0].speedup == points[1].speedup
        assert points[0].label == points[1].label

    def test_single_value_sweep(self, tiny_config):
        points = sweep_config(
            "VA", "small", [4],
            lambda cfg, v: setattr(cfg.network, "ds_latency_cycles", v),
            config=small_config(tiny_config), label="latency")
        assert len(points) == 1
        assert points[0].label == "latency=4"

    def test_base_config_is_not_mutated(self, tiny_config):
        config = small_config(tiny_config)
        before = config.network.ds_latency_cycles
        sweep_config(
            "VA", "small", [before + 7],
            lambda cfg, v: setattr(cfg.network, "ds_latency_cycles", v),
            config=config)
        assert config.network.ds_latency_cycles == before


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["A", "Long header"],
                            [["x", 1], ["yyyy", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[2:])) <= 2

    def test_bar_chart(self):
        chart = ascii_bar_chart([("a", 10.0), ("bb", 5.0)], width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_bar_chart_empty(self):
        assert ascii_bar_chart([]) == "(no data)"

    def test_bar_chart_all_zero(self):
        chart = ascii_bar_chart([("a", 0.0)])
        assert "a" in chart


class TestPrefetcherBaseline:
    def test_prefetch_fills_next_line(self, tiny_config):
        from repro.core.system import IntegratedSystem
        config = small_config(tiny_config)
        config.gpu.prefetch_degree = 2
        system = IntegratedSystem(config, CoherenceMode.CCSM)
        assert system.prefetcher is not None
        result = system.run(
            __import__("repro.workloads.suite",
                       fromlist=["get_workload"]).get_workload(
                           "VA", "small"))
        assert result.stats["hammer.prefetches"] > 0

    def test_degree_zero_disables(self, tiny_config):
        from repro.core.system import IntegratedSystem
        config = small_config(tiny_config)
        config.gpu.prefetch_degree = 0
        system = IntegratedSystem(config, CoherenceMode.CCSM)
        assert system.prefetcher is None

    def test_negative_degree_rejected(self):
        from repro.gpu.prefetch import NextLinePrefetcher
        with pytest.raises(ValueError):
            NextLinePrefetcher("p", None, lambda a: "s", degree=-1)
