"""Simulation telemetry: tick-time tracing, interval sampling, exports.

Three complementary instruments, all keyed on **simulated ticks** (the
sampling profiler in :mod:`repro.utils.profiler` answers "where does the
host spend its seconds"; this package answers "when does the simulated
machine do what"):

* :class:`~repro.telemetry.tracer.Tracer` — typed, categorized span and
  instant events emitted by the engine and every device model, bounded
  in memory with an explicit dropped count;
* :class:`~repro.telemetry.sampler.IntervalSampler` — per-epoch
  time-series (miss rates, occupancies, link traffic) recorded into
  :class:`~repro.core.metrics.RunResult` so experiments can report
  *when* direct store wins, not just that it does;
* :mod:`~repro.telemetry.export` — Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``), JSONL dumps, and terminal summaries.

Everything is zero-overhead when off: hot paths guard on
``TRACER.enabled`` (one attribute read) and the sampler only exists
when a sampling interval was requested.
"""

from repro.telemetry.export import (
    sparkline,
    timeline_summary,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.manifest import run_manifest
from repro.telemetry.sampler import IntervalSampler, Probe, TimeSeries
from repro.telemetry.settings import TelemetrySettings
from repro.telemetry.tracer import TRACER, CATEGORIES, TraceEvent, Tracer

__all__ = [
    "CATEGORIES",
    "IntervalSampler",
    "Probe",
    "TimeSeries",
    "TRACER",
    "TelemetrySettings",
    "TraceEvent",
    "Tracer",
    "run_manifest",
    "sparkline",
    "timeline_summary",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
