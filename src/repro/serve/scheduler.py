"""Dedupe-aware asyncio scheduler over a worker pool.

The scheduler owns the job table (fingerprint → :class:`Job`).  Because
the job id *is* the run fingerprint, dedupe is a dictionary lookup:

* an identical submission while the first is queued/running joins the
  existing job (one simulation, N watchers — ``inflight_dedup_hits``);
* an identical submission after completion returns the finished job
  immediately (``completed_dedup_hits``);
* a failed or cancelled job is retried by resubmission.

Worker-slot concurrency is bounded by the same
:func:`~repro.harness.parallel.resolve_jobs` policy as the batch
harness (``REPRO_JOBS`` / cpu count), and a job takes the harness's
run-point path: :func:`~repro.harness.parallel.execute_point` runs it
and :func:`~repro.harness.parallel.cache_get` /
:func:`~repro.harness.parallel.cache_put` read and write the result
cache.  Simulations run in a
``ProcessPoolExecutor`` off the event loop; where process pools are
unavailable (sandboxes that forbid forking) the scheduler degrades to
a thread pool — simulations are pure Python so this serializes on the
GIL, but every request still completes.  Each job supports a wall-time
timeout and explicit cancellation.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from typing import Any, Dict, Optional

from repro import obslog
from repro.core.config import SystemConfig
from repro.core.metrics import RunResult
from repro.harness import parallel
from repro.harness.parallel import (
    RunPoint,
    cache_get,
    cache_put,
    resolve_jobs,
)
from repro.harness.resultcache import ResultCache, run_fingerprint
from repro.metrics import REGISTRY
from repro.metrics import names as metric_names
from repro.serve.jobs import Job, JobState, parse_job_payload

#: environment override for the per-job wall-clock timeout (seconds)
TIMEOUT_ENV = "REPRO_SERVE_TIMEOUT"

_LOG = obslog.get_logger("serve.scheduler")

_METRIC_SUBMITTED = metric_names.declare(REGISTRY,
                                         metric_names.JOBS_SUBMITTED)
_METRIC_DEDUPLICATED = metric_names.declare(
    REGISTRY, metric_names.JOBS_DEDUPLICATED)
_METRIC_SETTLED = metric_names.declare(REGISTRY,
                                       metric_names.JOBS_SETTLED)
_METRIC_JOBS_BY_STATE = metric_names.declare(REGISTRY,
                                             metric_names.JOBS_BY_STATE)
_METRIC_QUEUE_DEPTH = metric_names.declare(REGISTRY,
                                           metric_names.QUEUE_DEPTH)
_METRIC_SIMULATIONS = metric_names.declare(REGISTRY,
                                           metric_names.SIMULATIONS)
_METRIC_DEGRADED = metric_names.declare(REGISTRY,
                                        metric_names.EXECUTOR_DEGRADED)
_METRIC_WALL_SECONDS = metric_names.declare(REGISTRY,
                                            metric_names.JOB_WALL_SECONDS)
_METRIC_UPTIME = metric_names.declare(REGISTRY,
                                      metric_names.UPTIME_SECONDS)


class JobScheduler:
    """Job table + in-flight dedupe + bounded pool execution."""

    def __init__(self, cache: Optional[ResultCache] = None,
                 jobs: Optional[int] = None,
                 timeout_s: Optional[float] = None,
                 use_processes: Optional[bool] = None) -> None:
        self.cache = cache
        self.max_workers = resolve_jobs(jobs)
        self.timeout_s = timeout_s
        self.jobs: Dict[str, Job] = {}
        self.started = time.time()
        self.inflight_dedup_hits = 0
        self.completed_dedup_hits = 0
        self.simulations_run = 0
        #: True once a process-pool scheduler fell back to threads;
        #: never set when threads were chosen explicitly
        self.degraded_to_threads = False
        self._use_processes = use_processes
        self._executor = None
        self._executor_kind: Optional[str] = None
        self._semaphore = asyncio.Semaphore(self.max_workers)
        self._tasks: Dict[str, asyncio.Task] = {}
        self._settlers: list = []

    # -- submission ----------------------------------------------------

    def fingerprint_of(self, point: RunPoint) -> str:
        config = point.config or SystemConfig(track_values=False)
        return run_fingerprint(point.code, point.input_size, point.mode,
                               config, telemetry=point.telemetry)

    def submit_payload(self, payload: Any) -> Job:
        """Validate and submit one job payload (see :meth:`submit`)."""
        return self.submit(parse_job_payload(payload))

    def submit(self, point: RunPoint) -> Job:
        """Admit one point; returns the (possibly pre-existing) job."""
        fingerprint = self.fingerprint_of(point)
        _METRIC_SUBMITTED.inc()
        existing = self.jobs.get(fingerprint)
        if existing is not None:
            existing.submissions += 1
            if not existing.state.terminal:
                self.inflight_dedup_hits += 1
                _METRIC_DEDUPLICATED.labels(kind="inflight").inc()
                _LOG.info("job_deduped", job=fingerprint,
                          kind="inflight", state=existing.state.value)
                return existing
            if existing.state is JobState.DONE:
                self.completed_dedup_hits += 1
                _METRIC_DEDUPLICATED.labels(kind="completed").inc()
                _LOG.info("job_deduped", job=fingerprint,
                          kind="completed")
                return existing
            # failed / cancelled: resubmission retries with a fresh job
        job = Job(fingerprint, point)
        if existing is not None:
            job.submissions += existing.submissions
        self.jobs[fingerprint] = job
        _LOG.info("job_admitted", job=fingerprint, code=point.code,
                  input_size=point.input_size, mode=point.mode.value,
                  retry=existing is not None)
        task = asyncio.get_running_loop().create_task(self._run_job(job))
        task.add_done_callback(
            lambda done, job=job: self._settle(job, done))
        self._tasks[fingerprint] = task
        return job

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued/running job; True when a cancel was issued."""
        job = self.jobs.get(job_id)
        task = self._tasks.get(job_id)
        if job is None or task is None or job.state.terminal:
            return False
        return task.cancel()

    # -- execution -----------------------------------------------------

    def _get_executor(self):
        if self._executor_kind is None:
            use_processes = self._use_processes
            if use_processes is None or use_processes:
                try:
                    from concurrent.futures import ProcessPoolExecutor
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.max_workers)
                    self._executor_kind = "process"
                    return self._executor
                except (ImportError, NotImplementedError, OSError,
                        PermissionError):
                    if use_processes:
                        raise
                    self._mark_degraded("process pool unavailable")
            self._executor = ThreadPoolExecutor(
                max_workers=self.max_workers)
            self._executor_kind = "thread"
        return self._executor

    def _mark_degraded(self, reason: str) -> None:
        """Record that processes were wanted but threads were obtained.

        Explicit ``use_processes=False`` is a *choice*, not degradation
        — only a scheduler that preferred a process pool and could not
        keep one counts (and trips the ``/readyz`` probe).
        """
        if self._use_processes is False or self.degraded_to_threads:
            return
        self.degraded_to_threads = True
        _METRIC_DEGRADED.set(1)
        _LOG.warning("executor_degraded", reason=reason,
                     max_workers=self.max_workers)

    def _degrade_to_threads(self) -> None:
        self._mark_degraded("process pool broke mid-run")
        old = self._executor
        self._executor = ThreadPoolExecutor(max_workers=self.max_workers)
        self._executor_kind = "thread"
        if old is not None:
            old.shutdown(wait=False)

    async def _execute(self, point: RunPoint) -> RunResult:
        loop = asyncio.get_running_loop()
        # looked up per job, so a patch of the harness's function (tests)
        # reaches the service too
        execute = parallel.execute_point
        try:
            return await loop.run_in_executor(self._get_executor(),
                                              execute, point)
        except BrokenExecutor:
            # the pool died under us (fork refused at first use, a
            # worker killed); degrade to threads and retry once
            self._degrade_to_threads()
            return await loop.run_in_executor(self._executor,
                                              execute, point)

    def _observe_settled(self, job: Job, state_label: str,
                         **fields: Any) -> None:
        """Count one terminal transition and its submit→settle wall time.

        *state_label* extends :class:`JobState` values with ``timeout``
        so timed-out jobs (stored as FAILED) stay distinguishable.
        """
        wall_s = max(0.0, time.time() - job.created)
        _METRIC_SETTLED.labels(state=state_label).inc()
        _METRIC_WALL_SECONDS.labels(state=state_label).observe(wall_s)
        level = "info" if state_label == "done" else "warning"
        _LOG.log(level, f"job_{state_label}", job=job.fingerprint,
                 wall_s=round(wall_s, 6), **fields)

    async def _run_job(self, job: Job) -> None:
        try:
            async with self._semaphore:
                cached = cache_get(self.cache, job.point)
                if cached is not None:
                    job.cached = True
                    await job.finish(cached)
                    self._observe_settled(job, "done", cached=True)
                    return
                await job.advance(JobState.RUNNING)
                self.simulations_run += 1
                _METRIC_SIMULATIONS.inc()
                _LOG.info("job_running", job=job.fingerprint,
                          executor=self._executor_kind or "pending")
                try:
                    execution = self._execute(job.point)
                    if self.timeout_s:
                        result = await asyncio.wait_for(execution,
                                                        self.timeout_s)
                    else:
                        result = await execution
                except asyncio.TimeoutError:
                    await job.advance(
                        JobState.FAILED,
                        error=f"timed out after {self.timeout_s}s")
                    self._observe_settled(job, "timeout",
                                          timeout_s=self.timeout_s)
                    return
                except Exception as exc:
                    await job.advance(JobState.FAILED, error=repr(exc))
                    self._observe_settled(job, "failed", error=repr(exc))
                    return
                cache_put(self.cache, job.point, result)
                await job.finish(result)
                self._observe_settled(job, "done", cached=False)
        except asyncio.CancelledError:
            if not job.state.terminal:
                await asyncio.shield(job.advance(JobState.CANCELLED))
                self._observe_settled(job, "cancelled")
            raise

    def _settle(self, job: Job, task: asyncio.Task) -> None:
        """Drop the finished task, and settle a job its task did not.

        Normal paths settle inside :meth:`_run_job`; this is the
        backstop for a task cancelled before its first step ever ran
        (the coroutine body never executes, so its cleanup never does
        either) and any unexpected escape.  A retry may already hold
        the fingerprint's entry in ``_tasks``; that one stays.
        """
        if self._tasks.get(job.fingerprint) is task:
            del self._tasks[job.fingerprint]
        if job.state.terminal:
            return
        if task.cancelled():
            state, error = JobState.CANCELLED, None
        else:
            exc = task.exception()
            state = JobState.FAILED
            error = repr(exc) if exc else "job task exited unexpectedly"
        self._observe_settled(job, state.value, error=error,
                              backstop=True)
        settle = asyncio.get_running_loop().create_task(
            job.advance(state, error=error))
        self._settlers.append(settle)

    # -- reporting / shutdown ------------------------------------------

    def _state_counts(self) -> Dict[str, int]:
        """Jobs per state, every :class:`JobState` present."""
        states = {state.value: 0 for state in JobState}
        for job in self.jobs.values():
            states[job.state.value] += 1
        return states

    def stats(self) -> Dict[str, Any]:
        """The ``GET /stats`` document."""
        states = self._state_counts()
        cache: Dict[str, Any] = {"enabled": self.cache is not None}
        if self.cache is not None:
            cache.update(hits=self.cache.hits, misses=self.cache.misses,
                         evictions=self.cache.evictions,
                         byte_budget=self.cache.byte_budget,
                         directory=str(self.cache.directory),
                         **self.cache.scan().to_dict())
        return {
            "uptime_s": round(time.time() - self.started, 3),
            "max_workers": self.max_workers,
            "executor": self._executor_kind,
            "degraded_to_threads": self.degraded_to_threads,
            "timeout_s": self.timeout_s,
            "jobs": {"total": len(self.jobs), **states},
            "queue_depth": states[JobState.QUEUED.value],
            "dedupe": {
                "inflight_hits": self.inflight_dedup_hits,
                "completed_hits": self.completed_dedup_hits,
            },
            "simulations_run": self.simulations_run,
            "cache": cache,
        }

    def readiness(self) -> Dict[str, Any]:
        """The ``GET /readyz`` document; ``ready`` drives the status.

        Degradation to threads keeps the service *alive* (``/healthz``
        stays 200 — every request still completes) but not *ready*:
        orchestrators should stop routing new load at a server whose
        process pool is gone.
        """
        return {
            "ready": not self.degraded_to_threads,
            "degraded_to_threads": self.degraded_to_threads,
            "executor": self._executor_kind,
            "max_workers": self.max_workers,
        }

    def refresh_gauges(self) -> None:
        """Bring point-in-time gauges current before a scrape.

        Counters are exact because they increment at event time; gauges
        describe *this* scheduler's current shape, so the serving
        scheduler re-derives them when ``/metrics`` or ``/stats?v=2``
        is read rather than racing other scheduler instances for
        ownership of the shared registry.
        """
        states = self._state_counts()
        for state, count in states.items():
            _METRIC_JOBS_BY_STATE.labels(state=state).set(count)
        _METRIC_QUEUE_DEPTH.set(states[JobState.QUEUED.value])
        _METRIC_DEGRADED.set(1 if self.degraded_to_threads else 0)
        _METRIC_UPTIME.set(round(time.time() - self.started, 3))
        if self.cache is not None:
            self.cache.scan()  # sets the cache entry/byte gauges

    async def shutdown(self) -> None:
        """Cancel outstanding jobs and release the pool."""
        for task in list(self._tasks.values()):
            if not task.done():
                task.cancel()
        for task in list(self._tasks.values()):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        # let done-callbacks schedule their settle tasks, then drain them
        await asyncio.sleep(0)
        for settle in self._settlers:
            try:
                await settle
            except (asyncio.CancelledError, Exception):
                pass
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            self._executor_kind = None
