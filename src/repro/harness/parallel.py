"""Parallel fan-out execution of benchmark runs.

The evaluation regenerates 88 independent simulations (22 benchmarks ×
{small, big} × {CCSM, DS}); each is single-threaded and deterministic,
so the experiment layer fans them out across a
:class:`~concurrent.futures.ProcessPoolExecutor` and reassembles the
results in input order — parallel output is indistinguishable from a
serial run, just faster.

Job-count resolution: an explicit ``jobs`` argument wins, then the
``REPRO_JOBS`` environment variable, then ``os.cpu_count()``.  With
``jobs=1`` (or when no process pool can be created — some sandboxes
forbid forking) everything runs in-process, serially, through the exact
same code path the workers use.

Results are read through / written to an optional
:class:`~repro.harness.resultcache.ResultCache` so only cache misses
are ever dispatched.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.core.metrics import RunResult
from repro.core.protocol_mode import CoherenceMode
from repro.harness.resultcache import ResultCache
from repro.harness.runner import BenchmarkComparison, run_benchmark
from repro.metrics import REGISTRY
from repro.metrics import names as metric_names
from repro.telemetry import TelemetrySettings

#: environment override for the default worker count
JOBS_ENV = "REPRO_JOBS"

#: process-wide service metrics: how batches resolve their points
_METRIC_POINTS = metric_names.declare(REGISTRY,
                                      metric_names.RUNNER_POINTS)
_METRIC_BATCHES = metric_names.declare(REGISTRY,
                                       metric_names.RUNNER_BATCHES)
_METRIC_BATCH_SECONDS = metric_names.declare(
    REGISTRY, metric_names.RUNNER_BATCH_SECONDS)


@dataclass
class RunPoint:
    """One simulation to execute: (benchmark, input size, mode, config).

    ``telemetry`` requests interval sampling for the point (the
    time-series rides back inside the :class:`RunResult`, so it survives
    worker-process boundaries and the result cache).  Event *tracing*
    is a serial-consumer concern — the trace lives in the worker's
    process-global tracer and would be lost across a pool boundary — so
    traced runs should go through
    :func:`~repro.harness.runner.run_benchmark` directly.
    """

    code: str
    input_size: str
    mode: CoherenceMode
    config: Optional[SystemConfig] = None
    telemetry: Optional[TelemetrySettings] = None


class WorkerError(RuntimeError):
    """A worker failed; carries the failing point for diagnosis."""

    def __init__(self, point: RunPoint, cause: BaseException) -> None:
        super().__init__(
            f"benchmark run {point.code}/{point.input_size} "
            f"[{point.mode.value}] failed: {cause!r}")
        self.point = point
        self.cause = cause


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``REPRO_JOBS`` > cpu count.

    On a single-hardware-thread host the answer is always 1: a process
    pool there buys no parallelism and pays spawn + pickle overhead for
    every point (the ``speedup_parallel_vs_serial: 0.91`` regression in
    the benchmark record), so even an explicit ``jobs > 1`` is clamped
    and the batch runs in-process.
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV} must be an integer, got {env!r}") from None
        else:
            jobs = os.cpu_count() or 1
    jobs = max(1, jobs)
    if jobs > 1 and (os.cpu_count() or 1) == 1:
        jobs = 1
    return jobs


def execute_point(point: RunPoint) -> RunResult:
    """Run one point: what pool workers and the job service call.

    Module-level so process pools can pickle it.  Callers look it up on
    this module when they dispatch, so one patch of
    ``repro.harness.parallel.execute_point`` covers every path.
    """
    return run_benchmark(point.code, point.input_size, point.mode,
                         point.config, telemetry=point.telemetry)


def cache_get(cache: Optional[ResultCache],
              point: RunPoint) -> Optional[RunResult]:
    """*point*'s cached result, or ``None`` (also when *cache* is None)."""
    if cache is None:
        return None
    config = point.config or SystemConfig(track_values=False)
    return cache.get(point.code, point.input_size, point.mode, config,
                     telemetry=point.telemetry)


def cache_put(cache: Optional[ResultCache], point: RunPoint,
              result: RunResult) -> None:
    """Store *result* for *point*; a failed write loses nothing else."""
    if cache is None:
        return
    config = point.config or SystemConfig(track_values=False)
    try:
        cache.put(point.code, point.input_size, point.mode, config,
                  result, telemetry=point.telemetry)
    except OSError:
        # the run finished and keeps its result; the cache counted and
        # logged the failed write
        pass


class ParallelRunner:
    """Dispatches :class:`RunPoint` batches, cache-aware, order-stable."""

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache

    def run_points(self, points: Sequence[RunPoint],
                   progress: Optional[Callable[[RunPoint], None]] = None,
                   ) -> List[RunResult]:
        """Execute every point; results come back in input order.

        Cached points are served without dispatch; the rest fan out
        across the pool (or run serially, see the module docstring).  A
        crashed worker surfaces as :class:`WorkerError` naming the
        failing point.
        """
        start = time.perf_counter()
        results: List[Optional[RunResult]] = [None] * len(points)
        pending: List[Tuple[int, RunPoint]] = []
        for index, point in enumerate(points):
            cached = cache_get(self.cache, point)
            if cached is not None:
                results[index] = cached
                _METRIC_POINTS.labels(source="cache").inc()
                if progress is not None:
                    progress(point)
            else:
                pending.append((index, point))

        if pending:
            if self.jobs == 1 or len(pending) == 1:
                self._run_serial(pending, results, progress)
            else:
                self._run_pool(pending, results, progress)
        _METRIC_BATCHES.inc()
        _METRIC_BATCH_SECONDS.observe(time.perf_counter() - start)
        return results  # type: ignore[return-value]

    def compare_many(self, codes: Sequence[str], input_size: str,
                     config: Optional[SystemConfig] = None,
                     ds_mode: CoherenceMode = CoherenceMode.DIRECT_STORE,
                     progress: Optional[Callable[[str], None]] = None,
                     telemetry: Optional[TelemetrySettings] = None,
                     ) -> List[BenchmarkComparison]:
        """CCSM-vs-DS comparisons for many benchmarks in one fan-out."""
        base_config = config or SystemConfig(track_values=False)
        points = []
        for code in codes:
            points.append(RunPoint(code, input_size, CoherenceMode.CCSM,
                                   base_config, telemetry))
            points.append(RunPoint(code, input_size, ds_mode, base_config,
                                   telemetry))
        seen = set()

        def _point_progress(point: RunPoint) -> None:
            if progress is not None and point.code not in seen:
                seen.add(point.code)
                progress(point.code)

        results = self.run_points(points, progress=_point_progress)
        return [BenchmarkComparison(code=code.upper(),
                                    input_size=input_size,
                                    ccsm=results[2 * i],
                                    direct_store=results[2 * i + 1])
                for i, code in enumerate(codes)]

    # ------------------------------------------------------------------

    def _finish(self, index: int, point: RunPoint, result: RunResult,
                results: List[Optional[RunResult]],
                progress: Optional[Callable[[RunPoint], None]],
                source: str = "serial") -> None:
        results[index] = result
        cache_put(self.cache, point, result)
        _METRIC_POINTS.labels(source=source).inc()
        if progress is not None:
            progress(point)

    def _run_serial(self, pending: Sequence[Tuple[int, RunPoint]],
                    results: List[Optional[RunResult]],
                    progress: Optional[Callable[[RunPoint], None]]) -> None:
        for index, point in pending:
            try:
                result = execute_point(point)
            except Exception as exc:
                raise WorkerError(point, exc) from exc
            self._finish(index, point, result, results, progress)

    def _run_pool(self, pending: Sequence[Tuple[int, RunPoint]],
                  results: List[Optional[RunResult]],
                  progress: Optional[Callable[[RunPoint], None]]) -> None:
        try:
            from concurrent.futures import ProcessPoolExecutor
            executor = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(pending)))
        except (ImportError, NotImplementedError, OSError, PermissionError):
            # no usable process pool here (restricted sandbox); degrade
            self._run_serial(pending, results, progress)
            return
        from concurrent.futures import BrokenExecutor
        futures: List[Tuple[int, RunPoint, "Future[RunResult]"]] = []
        try:
            with executor:
                for index, point in pending:
                    futures.append((index, point,
                                    executor.submit(execute_point, point)))
                for index, point, future in futures:
                    try:
                        result = future.result()
                    except BrokenExecutor:
                        # the pool died mid-run (a worker was killed);
                        # not this point's fault — re-dispatch below
                        raise
                    except Exception as exc:
                        raise WorkerError(point, exc) from exc
                    self._finish(index, point, result, results, progress,
                                 source="pool")
        except WorkerError:
            raise
        except (OSError, RuntimeError):
            # the pool itself broke (fork refused at submit time, a
            # worker killed mid-run, ...); keep whatever the pool did
            # finish, then fall back to in-process execution for only
            # the points that never produced a result
            for index, point, future in futures:
                if (results[index] is not None or not future.done()
                        or future.cancelled()):
                    continue
                try:
                    result = future.result()
                except Exception:
                    continue  # re-dispatched below; runs are idempotent
                self._finish(index, point, result, results, progress,
                             source="pool")
            unfinished = [(index, point) for index, point in pending
                          if results[index] is None]
            if not unfinished:
                raise
            self._run_serial(unfinished, results, progress)


def compare_many(codes: Sequence[str], input_size: str,
                 config: Optional[SystemConfig] = None,
                 ds_mode: CoherenceMode = CoherenceMode.DIRECT_STORE,
                 jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 telemetry: Optional[TelemetrySettings] = None,
                 ) -> List[BenchmarkComparison]:
    """Module-level convenience wrapper over :class:`ParallelRunner`."""
    runner = ParallelRunner(jobs=jobs, cache=cache)
    return runner.compare_many(codes, input_size, config=config,
                               ds_mode=ds_mode, progress=progress,
                               telemetry=telemetry)
