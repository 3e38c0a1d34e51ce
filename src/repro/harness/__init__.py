"""Experiment harness: runners, figure/table reproduction, reporting."""

from repro.harness.reporting import ascii_bar_chart, format_table
from repro.harness.runner import BenchmarkComparison, run_benchmark
from repro.harness.experiments import (
    Fig4Row,
    Fig5Row,
    figure4,
    figure5,
    geomean_nonzero_speedup,
)
from repro.harness.parallel import (
    ParallelRunner,
    RunPoint,
    WorkerError,
    compare_many,
    resolve_jobs,
)
from repro.harness.persist import save_comparisons
from repro.harness.resultcache import ResultCache, default_cache, run_fingerprint
from repro.harness.sweep import sweep_config

__all__ = [
    "ascii_bar_chart",
    "format_table",
    "BenchmarkComparison",
    "run_benchmark",
    "Fig4Row",
    "Fig5Row",
    "figure4",
    "figure5",
    "geomean_nonzero_speedup",
    "ParallelRunner",
    "RunPoint",
    "WorkerError",
    "compare_many",
    "resolve_jobs",
    "ResultCache",
    "default_cache",
    "run_fingerprint",
    "sweep_config",
    "save_comparisons",
]
