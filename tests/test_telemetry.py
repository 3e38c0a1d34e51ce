"""Telemetry subsystem tests.

The contract under test, in order of importance:

1. **Transparency** — telemetry is pure observation.  With tracing and
   sampling enabled, a run's tick count and every committed statistic
   are bit-identical to the same run with telemetry off; a traced run
   executes the same SM code as an untraced one.
2. **Export validity** — the Chrome trace-event JSON loads in Perfetto:
   monotonic integral timestamps, known phase codes, every tid named by
   a metadata event, and events from the major categories including the
   ``direct_store`` forwards.
3. **Round-tripping** — interval time-series and per-phase records
   survive ``RunResult.to_dict``/``from_dict`` and the on-disk result
   cache, and traced/sampled runs never share a cache entry with plain
   ones.
"""

import json

import pytest

from repro.core.config import SystemConfig
from repro.core.metrics import RunResult
from repro.core.protocol_mode import CoherenceMode
from repro.harness.resultcache import ResultCache, run_fingerprint
from repro.harness.runner import run_benchmark
from repro.telemetry import (
    SAMPLE_INTERVAL_ENV,
    TRACE_ENV,
    TRACER,
    IntervalSampler,
    Probe,
    TelemetrySettings,
    TimeSeries,
    Tracer,
    run_manifest,
    timeline_summary,
    to_chrome_trace,
)

VALID_PH = {"M", "X", "i", "C"}


@pytest.fixture(autouse=True)
def reset_global_tracer():
    """Every test starts and ends with the shared tracer off and empty."""
    TRACER.disable()
    TRACER.clear()
    yield
    TRACER.disable()
    TRACER.clear()


def run(code, mode=CoherenceMode.DIRECT_STORE, telemetry=None):
    return run_benchmark(code, "small", mode,
                         SystemConfig(track_values=False),
                         telemetry=telemetry)


class TestTracer:
    def test_instant_and_span(self):
        tracer = Tracer()
        tracer.instant("cache", "miss", 5, track="l2")
        tracer.span("network", "data", 10, 25, track="xbar",
                    args={"dst": "gpu"})
        assert len(tracer) == 2
        assert not tracer.events[0].is_span
        assert tracer.events[1].is_span
        assert tracer.events[1].dur == 15
        assert tracer.category_counts() == {"cache": 1, "network": 1}

    def test_negative_span_degrades_to_instant(self):
        tracer = Tracer()
        tracer.span("dram", "access", 10, 8)
        assert tracer.events[0].dur == 0

    def test_capacity_counts_drops(self):
        tracer = Tracer(capacity=2)
        for tick in range(5):
            tracer.instant("cache", "miss", tick)
        assert len(tracer) == 2
        assert tracer.dropped == 3
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_clock_binding(self):
        tracer = Tracer()
        assert tracer.now() == 0
        tracer.bind_clock(lambda: 1234)
        assert tracer.now() == 1234


class TestSampler:
    def test_delta_and_gauge(self):
        counter = {"value": 0.0}
        sampler = IntervalSampler(10, [
            Probe("total", lambda: counter["value"], mode="delta"),
            Probe("level", lambda: counter["value"], mode="gauge"),
        ])
        counter["value"] = 7
        sampler.advance_to(10)
        counter["value"] = 12
        sampler.advance_to(20)
        series = sampler.to_timeseries()
        assert series.ticks == [10, 20]
        assert series.series["total"] == [7.0, 5.0]
        assert series.series["level"] == [7.0, 12.0]

    def test_quiet_stretch_samples_every_boundary(self):
        sampler = IntervalSampler(10, [Probe("x", lambda: 0.0)])
        sampler.advance_to(35)
        assert sampler.to_timeseries().ticks == [10, 20, 30]
        assert sampler.next_tick == 40

    def test_interval_larger_than_run(self):
        # the closing sample is the only sample
        sampler = IntervalSampler(1_000_000, [Probe("x", lambda: 3.0)])
        sampler.advance_to(42)
        sampler.finalize(42)
        series = sampler.to_timeseries()
        assert series.ticks == [42]
        assert series.series["x"] == [3.0]

    def test_zero_length_run(self):
        sampler = IntervalSampler(100, [Probe("x", lambda: 0.0)])
        sampler.finalize(0)
        assert sampler.to_timeseries().ticks == [0]

    def test_finalize_idempotent_and_no_duplicate(self):
        sampler = IntervalSampler(10, [Probe("x", lambda: 1.0)])
        sampler.advance_to(10)
        sampler.finalize(10)   # final tick already sampled
        sampler.finalize(10)
        assert sampler.to_timeseries().ticks == [10]

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            IntervalSampler(0, [])
        with pytest.raises(ValueError):
            IntervalSampler(10, [Probe("x", lambda: 0.0),
                                 Probe("x", lambda: 1.0)])
        with pytest.raises(ValueError):
            Probe("x", lambda: 0.0, mode="rate")

    def test_timeseries_round_trip(self):
        series = TimeSeries(interval=10, ticks=[10, 20],
                            series={"a": [1.0, 2.5], "b": [0.0, -3.0]})
        assert TimeSeries.from_dict(series.to_dict()) == series


class TestSettings:
    def test_default_is_inert(self):
        settings = TelemetrySettings()
        assert not settings.active
        assert settings.fingerprint_payload() is None

    def test_active_payload(self):
        settings = TelemetrySettings(trace=True, sample_interval=500)
        assert settings.active
        assert settings.fingerprint_payload() == {
            "trace": True, "sample_interval": 500}

    def test_from_env_overlays(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "1")
        monkeypatch.setenv(SAMPLE_INTERVAL_ENV, "250")
        settings = TelemetrySettings.from_env()
        assert settings.trace and settings.sample_interval == 250
        # explicit base survives absent variables
        monkeypatch.delenv(TRACE_ENV)
        monkeypatch.delenv(SAMPLE_INTERVAL_ENV)
        base = TelemetrySettings(trace=True, sample_interval=9)
        assert TelemetrySettings.from_env(base) == base

    def test_trace_env_zero_is_off(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "0")
        assert not TelemetrySettings.from_env().trace


class TestTransparency:
    """Telemetry on vs off: same ticks, same committed statistics."""

    @pytest.mark.parametrize("code", ["KM", "FW"])
    def test_traced_run_is_bit_identical(self, code):
        plain = run(code)
        TRACER.clear()
        telemetry = TelemetrySettings(trace=True, sample_interval=100_000)
        traced = run(code, telemetry=telemetry)
        assert len(TRACER) > 0
        assert traced.total_ticks == plain.total_ticks
        assert traced.events_fired == plain.events_fired
        assert traced.stats == plain.stats
        assert traced.gpu_l2 == plain.gpu_l2
        # phase records are always on, so they match too
        assert traced.phases == plain.phases
        # the only difference telemetry makes is the time-series payload
        assert plain.timeseries is None
        assert traced.timeseries is not None and len(traced.timeseries)


class TestChromeTraceExport:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        TRACER.disable()
        TRACER.clear()
        telemetry = TelemetrySettings(trace=True, sample_interval=500_000)
        result = run("VA", telemetry=telemetry)
        document = to_chrome_trace(TRACER, phases=result.phases,
                                   timeseries=result.timeseries,
                                   label="VA/small direct_store")
        TRACER.disable()
        TRACER.clear()
        # the document must survive JSON serialization
        return json.loads(json.dumps(document)), result

    def test_schema(self, trace):
        document, _result = trace
        events = document["traceEvents"]
        assert events, "empty trace"
        last_ts = None
        for event in events:
            assert event["ph"] in VALID_PH
            assert event["pid"] == 1
            assert isinstance(event["tid"], int)
            if event["ph"] == "M":
                continue
            assert isinstance(event["ts"], int) and event["ts"] >= 0
            if last_ts is not None:
                assert event["ts"] >= last_ts
            last_ts = event["ts"]
            if event["ph"] == "X":
                assert isinstance(event["dur"], int) and event["dur"] >= 0
            if event["ph"] == "i":
                assert event["s"] == "t"

    def test_every_tid_is_named(self, trace):
        document, _result = trace
        events = document["traceEvents"]
        named = {event["tid"] for event in events if event["ph"] == "M"}
        used = {event["tid"] for event in events if event["ph"] != "M"}
        assert used <= named

    def test_categories_present(self, trace):
        document, _result = trace
        cats = {event.get("cat") for event in document["traceEvents"]}
        required = {"coherence", "direct_store", "network", "dram",
                    "cache", "warp"}
        assert required <= cats
        # the direct-store forwards themselves are in there
        forwards = [event for event in document["traceEvents"]
                    if event.get("cat") == "direct_store"
                    and event["name"] == "forward"]
        assert forwards

    def test_counters_from_timeseries(self, trace):
        document, result = trace
        counters = [event for event in document["traceEvents"]
                    if event["ph"] == "C"]
        assert len(counters) == (len(result.timeseries)
                                 * len(result.timeseries.series))

    def test_other_data(self, trace):
        document, _result = trace
        other = document["otherData"]
        assert other["dropped_events"] == 0
        assert "tick_unit" in other
        assert other["category_counts"]["direct_store"] > 0

    def test_timeline_summary_renders(self, trace):
        _document, result = trace
        text = timeline_summary(phases=result.phases,
                                timeseries=result.timeseries)
        assert "phases:" in text
        assert "time-series" in text
        assert "VA.produce" in text


class TestRoundTrip:
    @pytest.fixture(scope="class")
    def sampled(self):
        telemetry = TelemetrySettings(sample_interval=500_000)
        return run("VA", telemetry=telemetry), telemetry

    def test_result_dict_round_trip(self, sampled):
        result, _telemetry = sampled
        assert result.timeseries is not None
        restored = RunResult.from_dict(result.to_dict())
        assert restored == result

    def test_cache_round_trip(self, sampled, tmp_path):
        result, telemetry = sampled
        cache = ResultCache(tmp_path)
        config = SystemConfig(track_values=False)
        cache.put("VA", "small", CoherenceMode.DIRECT_STORE, config,
                  result, telemetry=telemetry)
        restored = cache.get("VA", "small", CoherenceMode.DIRECT_STORE,
                             config, telemetry=telemetry)
        assert restored == result
        assert restored.timeseries == result.timeseries
        assert restored.phases == result.phases
        # the entry carries provenance (entries shard by fp prefix)
        entry = json.loads(next(tmp_path.glob("**/*.json")).read_text())
        assert "git_sha" in entry["manifest"]

    def test_sampled_and_plain_never_collide(self, sampled, tmp_path):
        _result, telemetry = sampled
        config = SystemConfig(track_values=False)
        args = ("VA", "small", CoherenceMode.DIRECT_STORE, config)
        plain = run_fingerprint(*args)
        assert run_fingerprint(*args, telemetry=telemetry) != plain
        # all-default telemetry addresses the same entry as none at all
        assert run_fingerprint(*args,
                               telemetry=TelemetrySettings()) == plain

    def test_pre_telemetry_payload_still_loads(self):
        # a cache entry written before phases/timeseries/first_touch_hits
        # existed must deserialize with benign defaults
        result = run("VA")
        payload = result.to_dict()
        for key in ("phases", "timeseries"):
            del payload[key]
        for snapshot in ("gpu_l2", "gpu_l1", "cpu_l1d", "cpu_l2"):
            del payload[snapshot]["first_touch_hits"]
        restored = RunResult.from_dict(payload)
        assert restored.total_ticks == result.total_ticks
        assert restored.phases == []
        assert restored.timeseries is None
        assert restored.gpu_l2.first_touch_hits == 0


class TestManifest:
    def test_contents(self):
        manifest = run_manifest(SystemConfig())
        for key in ("timestamp", "python_version", "numpy_version",
                    "platform", "git_sha", "git_dirty",
                    "config_fingerprint", "argv"):
            assert key in manifest
        assert manifest["timestamp"].endswith("+00:00") \
            or manifest["timestamp"].endswith("Z")

    def test_config_fingerprint_tracks_config(self):
        small = run_manifest(SystemConfig())
        tweaked_config = SystemConfig()
        tweaked_config.gpu.l2_size *= 2
        tweaked = run_manifest(tweaked_config)
        assert small["config_fingerprint"] != tweaked["config_fingerprint"]
        assert run_manifest()["config_fingerprint"] is None

    def test_git_is_spawned_once_per_process(self, monkeypatch, tmp_path):
        import subprocess
        import sys

        from repro.serve.jobs import Job, parse_job_payload
        from repro.telemetry import manifest as manifest_module

        spawns = []
        real_run = subprocess.run

        def counting_run(args, *rest, **kwargs):
            if args[0] == "git":
                spawns.append(args)
            return real_run(args, *rest, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        manifest_module.git_revision.cache_clear()
        manifest_module.git_dirty.cache_clear()
        cache = ResultCache(tmp_path)
        point = parse_job_payload({"code": "VA"})
        manifests = []
        for index in range(3):
            monkeypatch.setattr(sys, "argv", ["repro", f"call{index}"])
            config = SystemConfig(max_events=1_000_000 + index)
            manifests.append(run_manifest(config))
            cache.put("VA", "small", CoherenceMode.CCSM, config,
                      RunResult(workload="VA/small", mode="ccsm",
                                total_ticks=index))
            manifests.append(Job(f"job{index}", point).manifest)
        assert len(spawns) <= 2
        assert len({(m["git_sha"], m["git_dirty"])
                    for m in manifests}) == 1
        # the per-call fields are still taken per call
        direct = manifests[0::2]
        assert len({m["argv"][1] for m in direct}) == 3
        assert len({m["config_fingerprint"] for m in direct}) == 3
        assert manifests[0]["timestamp"] != manifests[-1]["timestamp"]
