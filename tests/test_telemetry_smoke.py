"""End-to-end observation smoke checks on a real Table II point.

* a traced ``repro run`` exports Chrome trace JSON that Perfetto loads;
* tracing and interval sampling leave ticks and statistics untouched;
* the sampling host-time profiler does too, and the GPU SMs keep their
  fused fast path while it runs.

Run alone with ``python -m pytest -m smoke``.
"""

import json

import pytest

from repro.cli import main
from repro.core.protocol_mode import CoherenceMode
from repro.gpu.sm import StreamingMultiprocessor
from repro.harness.runner import run_benchmark
from repro.telemetry import TRACER, TelemetrySettings
from repro.utils.profiler import SamplingProfiler

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


def test_sampling_profiler_is_bit_identical_on_the_fast_path(
        plain, monkeypatch):
    launches = []
    prepare_fast = StreamingMultiprocessor._prepare_fast

    def recording_prepare_fast(sm):
        prepare_fast(sm)
        launches.append(sm._fast)

    monkeypatch.setattr(StreamingMultiprocessor, "_prepare_fast",
                        recording_prepare_fast)
    with SamplingProfiler() as profiler:
        sampled = run_benchmark("VA", "small", CoherenceMode.DIRECT_STORE)
    assert profiler.total_samples > 0
    assert launches and all(launches)
    assert_identical(plain, sampled)
