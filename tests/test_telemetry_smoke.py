"""End-to-end observation smoke checks on a real Table II point.

* a traced ``repro run`` exports Chrome trace JSON that Perfetto loads;
* tracing and interval sampling leave ticks and statistics untouched,
  and so does the sampling host-time profiler;
* a traced run takes the one shipping SM path, which emits one
  ``warp``/``load_miss`` span per recorded load-miss latency;
* a traced run takes the one coherence walk, which emits a fill instant
  per GETS/GETX, an upgrade instant per upgrade, a crossbar span per
  message and a cache ``miss`` instant per L2 demand miss.

Run alone with ``python -m pytest -m smoke``.
"""

import json

import pytest

from repro.cli import main
from repro.core.config import SystemConfig
from repro.core.protocol_mode import CoherenceMode
from repro.core.system import IntegratedSystem
from repro.harness.runner import run_benchmark
from repro.telemetry import TRACER, TelemetrySettings
from repro.utils.profiler import SamplingProfiler
from repro.workloads.suite import get_workload

pytestmark = pytest.mark.smoke


@pytest.fixture(autouse=True)
def quiet_tracer(monkeypatch, tmp_path):
    """The shared tracer starts and ends off and empty; no repo cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    TRACER.disable()
    TRACER.clear()
    yield
    TRACER.disable()
    TRACER.clear()


@pytest.fixture(scope="module")
def plain():
    return run_benchmark("VA", "small", CoherenceMode.DIRECT_STORE)


def assert_identical(expected, actual):
    assert actual.total_ticks == expected.total_ticks
    assert actual.stats == expected.stats


def test_chrome_trace_json_is_valid(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert main(["run", "VA", "--mode", "direct_store",
                 "--trace-out", str(path), "--sample-interval", "500000",
                 "--timeline"]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert events, "no trace events exported"
    last = None
    for event in events:
        assert event["ph"] in ("M", "X", "i", "C"), event
        if event["ph"] == "M":
            continue
        assert isinstance(event["ts"], int) and event["ts"] >= 0, event
        assert last is None or event["ts"] >= last, "ts not monotonic"
        last = event["ts"]
    categories = {event.get("cat") for event in events}
    required = {"coherence", "direct_store", "network", "dram", "cache"}
    assert required <= categories
    assert doc["otherData"]["dropped_events"] == 0


def test_tracing_is_bit_identical(plain):
    traced = run_benchmark(
        "VA", "small", CoherenceMode.DIRECT_STORE,
        telemetry=TelemetrySettings(trace=True, sample_interval=500_000))
    assert len(TRACER) > 0, "tracer recorded nothing"
    assert_identical(plain, traced)


def test_sampling_profiler_is_bit_identical_on_the_fast_path(plain):
    with SamplingProfiler() as profiler:
        sampled = run_benchmark("VA", "small", CoherenceMode.DIRECT_STORE)
    assert profiler.total_samples > 0
    assert_identical(plain, sampled)


@pytest.mark.parametrize("mode", [CoherenceMode.CCSM,
                                  CoherenceMode.DIRECT_STORE],
                         ids=lambda mode: mode.value)
def test_traced_km_is_bit_identical(mode):
    untraced = run_benchmark("KM", "small", mode)
    traced = run_benchmark("KM", "small", mode,
                           telemetry=TelemetrySettings(trace=True))
    assert len(TRACER) > 0, "tracer recorded nothing"
    assert_identical(untraced, traced)


@pytest.mark.parametrize("mode", [CoherenceMode.CCSM,
                                  CoherenceMode.DIRECT_STORE],
                         ids=lambda mode: mode.value)
def test_one_load_miss_span_per_load_latency_sample(mode):
    system = IntegratedSystem(SystemConfig(track_values=False), mode,
                              telemetry=TelemetrySettings(trace=True))
    system.run(get_workload("VA", "small"))
    assert TRACER.dropped == 0
    spans = {}
    for event in TRACER.for_category("warp"):
        if event.name == "load_miss":
            spans[event.track] = spans.get(event.track, 0) + 1
    samples = {sm.name: int(sm.stats.dump()[
        f"{sm.name}.load_latency_ticks.samples"]) for sm in system.sms}
    assert sum(samples.values()) > 0
    assert spans == {name: count for name, count in samples.items()
                     if count}


@pytest.mark.parametrize("code", ["KM", "FW"])
def test_coherence_walk_traces_every_counted_event(code):
    system = IntegratedSystem(SystemConfig(track_values=False),
                              CoherenceMode.CCSM,
                              telemetry=TelemetrySettings(trace=True))
    stats = system.run(get_workload(code, "small")).stats
    assert TRACER.dropped == 0
    counts = {}
    for event in TRACER.events:
        track = event.track if event.category in ("cache", "network") else ""
        key = (event.category, event.name, track)
        counts[key] = counts.get(key, 0) + 1
    coherence = {name: counts.get(("coherence", name, ""), 0)
                 for name in ("Load(fill)", "Store(fill)", "Store(upgrade)")}
    assert (coherence["Load(fill)"] + coherence["Store(fill)"]
            == stats["hammer.gets_requests"] + stats["hammer.getx_requests"]
            > 0)
    assert coherence["Store(upgrade)"] == stats["hammer.upgrades"]
    network = system.network.name
    assert (sum(count for (category, _name, track), count in counts.items()
                if category == "network" and track == network)
            == stats[f"{network}.messages"])
    for agent in system.engine.agents.values():
        l2 = agent.cache.name
        assert counts.get(("cache", "miss", l2), 0) == stats[f"{l2}.misses"]
