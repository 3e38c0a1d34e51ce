"""Service metrics registry, exposition and logging."""

import io
import json
import threading

import pytest

from repro import obslog
from repro.metrics import (REGISTRY, MetricsRegistry, names,
                           parse_exposition, sample_value, sum_samples)
from repro.metrics.exposition import (histogram_buckets,
                                      histogram_quantile)
from repro.metrics.registry import Histogram


class TestInstruments:
    def test_counter_counts(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("t_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.inc(-2)
        assert gauge.value == 13

    def test_concurrent_increments_are_exact(self):
        """No increment is ever lost to a read-modify-write race."""
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        gauge = registry.gauge("g")
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        per_thread, threads = 5_000, 8

        def hammer():
            for _ in range(per_thread):
                counter.inc()
                gauge.inc()
                histogram.observe(1.5)

        workers = [threading.Thread(target=hammer)
                   for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        expected = per_thread * threads
        assert counter.value == expected
        assert gauge.value == expected
        assert histogram.count == expected
        assert histogram.sum == pytest.approx(1.5 * expected)

    def test_histogram_edges_inclusive_upper(self):
        """Prometheus ``le`` semantics: v == bound lands in the bucket."""
        histogram = Histogram(buckets=(0.1, 0.5, 1.0))
        histogram.observe(0.1)     # exactly on a bound -> le="0.1"
        histogram.observe(0.1001)  # just past -> le="0.5"
        histogram.observe(2.0)     # beyond every bound -> +Inf only
        buckets = dict(histogram.cumulative_buckets())
        assert buckets[0.1] == 1
        assert buckets[0.5] == 2
        assert buckets[1.0] == 2
        assert buckets[float("inf")] == 3

    def test_histogram_needs_ascending_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=())


class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.family("x_total", "help", "counter")
        second = registry.family("x_total", "other help", "counter")
        assert first is second

    def test_conflicting_kind_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")

    def test_conflicting_labels_raise(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labels=("a",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("x_total", labels=("b",))

    def test_labeled_family_children(self):
        registry = MetricsRegistry()
        family = registry.counter("req_total",
                                  labels=("route", "status"))
        family.labels(route="/jobs", status="200").inc(3)
        family.labels(route="/jobs", status="404").inc()
        with pytest.raises(ValueError):
            family.labels(route="/jobs")  # missing a label name
        samples = parse_exposition(registry.render())
        assert sample_value(samples, "req_total", route="/jobs",
                            status="200") == 3
        assert sum_samples(samples, "req_total", route="/jobs") == 4

    def test_render_parseable_and_stable(self):
        registry = MetricsRegistry()
        registry.counter("b_total", "a counter").inc(2)
        registry.gauge("a_gauge", "a gauge").set(7)
        histogram = registry.histogram(
            "lat_seconds", buckets=(0.1, 1.0), labels=("route",))
        histogram.labels(route="/jobs").observe(0.05)
        first = registry.render()
        assert first == registry.render()  # stable ordering
        samples = parse_exposition(first)
        assert sample_value(samples, "b_total") == 2
        assert sample_value(samples, "a_gauge") == 7
        assert sample_value(samples, "lat_seconds_bucket",
                            route="/jobs", le="0.1") == 1
        assert sample_value(samples, "lat_seconds_count",
                            route="/jobs") == 1
        # families render name-sorted
        lines = [line for line in first.splitlines()
                 if line.startswith("# TYPE")]
        assert lines == sorted(lines)

    def test_snapshot_is_json_roundtrippable(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        document = json.loads(json.dumps(registry.snapshot()))
        assert document["a_total"]["samples"][0]["value"] == 1
        assert document["h_seconds"]["samples"][0]["buckets"]["1"] == 1

    def test_catalog_declares_cleanly(self):
        """Every catalog entry declares on a fresh registry."""
        registry = MetricsRegistry()
        for name in names.CATALOG:
            names.declare(registry, name)
        # idempotent second pass against the shared default registry
        for name in names.CATALOG:
            names.declare(REGISTRY, name)


class TestQuantiles:
    def test_quantile_interpolates(self):
        buckets = [(0.1, 0.0), (1.0, 10.0), (float("inf"), 10.0)]
        # p50 of 10 observations uniformly inside (0.1, 1.0]
        assert histogram_quantile(buckets, 0.5) == pytest.approx(0.55)

    def test_quantile_empty_and_inf(self):
        assert histogram_quantile([], 0.5) is None
        assert histogram_quantile([(1.0, 0.0),
                                   (float("inf"), 0.0)], 0.5) is None
        # everything in +Inf degrades to the highest finite bound
        buckets = [(1.0, 5.0), (float("inf"), 10.0)]
        assert histogram_quantile(buckets, 0.99) == 1.0

    def test_buckets_merge_over_labels(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("w_seconds", buckets=(1.0,),
                                       labels=("state",))
        histogram.labels(state="done").observe(0.5)
        histogram.labels(state="failed").observe(0.5)
        samples = parse_exposition(registry.render())
        merged = histogram_buckets(samples, "w_seconds")
        assert dict(merged)[1.0] == 2


class TestObslog:
    @pytest.fixture(autouse=True)
    def _reset(self):
        yield
        obslog.reset()

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(obslog.LOG_ENV, raising=False)
        obslog.reset()
        assert obslog.resolved_mode() == "off"
        assert not obslog.get_logger("test.component").enabled

    def test_json_records(self):
        buffer = io.StringIO()
        obslog.configure("json", stream=buffer)
        log = obslog.get_logger("test.json")
        log.info("job_admitted", job="abc123", code="VA")
        record = json.loads(buffer.getvalue())
        assert record["event"] == "job_admitted"
        assert record["component"] == "test.json"
        assert record["job"] == "abc123"
        assert record["level"] == "info"
        assert isinstance(record["ts"], float)

    def test_text_records(self):
        buffer = io.StringIO()
        obslog.configure("text", stream=buffer)
        obslog.get_logger("test.text").warning("thing", key="value")
        line = buffer.getvalue().strip()
        assert "WARNING" in line and "test.text thing" in line
        assert "key=value" in line

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv(obslog.LOG_ENV, "json")
        obslog.reset()
        assert obslog.resolved_mode() == "json"
        assert obslog.get_logger("test.env").enabled

    def test_closed_stream_is_swallowed(self):
        buffer = io.StringIO()
        obslog.configure("json", stream=buffer)
        buffer.close()
        obslog.get_logger("test.closed").info("event")  # must not raise


class TestBitIdentity:
    def test_metrics_and_logging_change_nothing(self, tiny_config):
        """Instrumented paths at (and above) defaults are bit-identical.

        The runner path increments counters and, here, logs every
        event — and must still produce exactly the ticks and stats of
        a direct uninstrumented run.
        """
        from repro.core.protocol_mode import CoherenceMode
        from repro.harness.parallel import ParallelRunner, RunPoint
        from repro.harness.runner import run_benchmark

        buffer = io.StringIO()
        obslog.configure("json", stream=buffer)
        try:
            instrumented = ParallelRunner(jobs=1).run_points(
                [RunPoint("km", "small", CoherenceMode.CCSM,
                          tiny_config)])[0]
        finally:
            obslog.reset()
        direct = run_benchmark("km", "small", CoherenceMode.CCSM,
                               tiny_config)
        assert instrumented.total_ticks == direct.total_ticks
        assert instrumented.to_dict() == direct.to_dict()

