"""Benchmark runners: one (workload, mode) point, or a mode comparison."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import SystemConfig
from repro.core.metrics import RunResult
from repro.core.protocol_mode import CoherenceMode
from repro.core.system import IntegratedSystem
from repro.engine.simulator import gc_suspended
from repro.telemetry import TelemetrySettings
from repro.workloads.suite import get_workload


def run_benchmark(code: str, input_size: str, mode: CoherenceMode,
                  config: Optional[SystemConfig] = None,
                  telemetry: Optional[TelemetrySettings] = None
                  ) -> RunResult:
    """Run one Table II benchmark once under *mode* and return metrics.

    A fresh :class:`IntegratedSystem` is built per call (systems are
    single-use); value tracking defaults off for speed — benchmark
    correctness is covered by the test suite.  *telemetry* requests
    tracing and/or interval sampling for this run (sampled time-series
    come back in ``RunResult.timeseries``; trace events land in the
    process-global ``TRACER``).
    """
    config = config or SystemConfig(track_values=False)
    with gc_suspended():
        system = IntegratedSystem(config, mode, telemetry=telemetry)
        try:
            return system.run(get_workload(code, input_size))
        finally:
            system.close()


@dataclass
class BenchmarkComparison:
    """CCSM-vs-direct-store results for one benchmark."""

    code: str
    input_size: str
    ccsm: RunResult
    direct_store: RunResult

    @property
    def speedup(self) -> float:
        """Fig. 4's metric: CCSM ticks / direct-store ticks."""
        return self.direct_store.speedup_over(self.ccsm)

    @property
    def speedup_percent(self) -> float:
        return (self.speedup - 1.0) * 100.0

    @property
    def ccsm_miss_rate(self) -> float:
        return self.ccsm.gpu_l2_miss_rate

    @property
    def ds_miss_rate(self) -> float:
        return self.direct_store.gpu_l2_miss_rate
