"""Job payloads and lifecycle for the simulation service.

A job *is* its simulation point: the submitted (config, benchmark,
input size, mode, telemetry) payload is validated into a
:class:`~repro.harness.parallel.RunPoint`, and the content-addressed
``run_fingerprint`` of that point is the job id.  Two submissions of
the same point are therefore the same job by construction — the
scheduler only has to coalesce by id.

States move ``queued → running → done | failed | cancelled``; a
cache-served job jumps ``queued → done`` without ever running.  Every
transition is timestamped in ``Job.history`` so clients can stream the
lifecycle.

A settled job is compact: a done job keeps its ``GET /jobs/<id>/result``
body as the bytes rendered once when it finished, not the
:class:`RunResult`, and every settled job's point drops its
:class:`SystemConfig` (the result cache keeps the durable copy).
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from enum import Enum
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from repro.core.config import SystemConfig
from repro.core.metrics import RunResult
from repro.core.protocol_mode import CoherenceMode
from repro.harness.parallel import RunPoint
from repro.serve.httpd import json_response
from repro.telemetry import TelemetrySettings
from repro.telemetry.manifest import run_manifest
from repro.workloads.suite import benchmark_codes

INPUT_SIZES = ("small", "big")

_MODES = {mode.value: mode for mode in CoherenceMode}

_PAYLOAD_KEYS = {"code", "input_size", "mode", "config", "telemetry"}


class JobError(ValueError):
    """An invalid job payload; the server maps this to HTTP 400."""


class JobState(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED,
                        JobState.CANCELLED)


def build_config(overrides: Optional[Dict[str, Any]]) -> SystemConfig:
    """A service run's :class:`SystemConfig` from payload overrides.

    The base is the harness default (``track_values=False`` — the
    correctness oracle is a test concern, not a sweep concern).  Top
    level scalars (``line_size``, ``replacement``, ...) are set
    directly; the nested sections (``cpu``/``gpu``/``network``/
    ``dram``) take objects of field overrides.  Unknown names raise
    :class:`JobError` — a typo must never silently fork a fingerprint.
    """
    config = SystemConfig(track_values=False)
    if overrides is None:
        return config
    if not isinstance(overrides, dict):
        raise JobError("'config' must be an object of field overrides")
    top_level = {f.name for f in dataclasses.fields(config)}
    for key, value in overrides.items():
        if key not in top_level:
            raise JobError(f"unknown config field {key!r}")
        current = getattr(config, key)
        if dataclasses.is_dataclass(current):
            if not isinstance(value, dict):
                raise JobError(
                    f"config section {key!r} takes an object of fields")
            section_fields = {f.name for f in dataclasses.fields(current)}
            for section_key, section_value in value.items():
                if section_key not in section_fields:
                    raise JobError(
                        f"unknown config field {key}.{section_key!r}")
                setattr(current, section_key, section_value)
        else:
            setattr(config, key, value)
    return config


def build_telemetry(payload: Optional[Dict[str, Any]]
                    ) -> Optional[TelemetrySettings]:
    """Telemetry settings from a payload, or ``None`` for defaults.

    Only interval sampling is meaningful through the service: the
    time-series rides back inside the :class:`RunResult`.  Event
    *tracing* lives in a worker-process-global tracer and would be
    lost across the pool boundary, so requesting it is an error rather
    than a silent no-op.
    """
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise JobError("'telemetry' must be an object")
    unknown = set(payload) - {"sample_interval", "trace"}
    if unknown:
        raise JobError(f"unknown telemetry field {sorted(unknown)[0]!r}")
    if payload.get("trace"):
        raise JobError(
            "event tracing is not available through the service; "
            "use 'python -m repro run --trace-out' for traced runs")
    interval = payload.get("sample_interval", 0)
    if not isinstance(interval, int) or interval < 0:
        raise JobError("'sample_interval' must be a non-negative integer")
    if interval == 0:
        return None
    return TelemetrySettings(sample_interval=interval)


def parse_job_payload(payload: Any) -> RunPoint:
    """Validate one ``POST /jobs`` payload into a :class:`RunPoint`."""
    if not isinstance(payload, dict):
        raise JobError("job payload must be a JSON object")
    unknown = set(payload) - _PAYLOAD_KEYS
    if unknown:
        raise JobError(f"unknown payload field {sorted(unknown)[0]!r}")
    code = payload.get("code")
    if not isinstance(code, str) or not code:
        raise JobError("'code' is required (a Table II benchmark code)")
    if code.upper() not in benchmark_codes():
        raise JobError(
            f"unknown benchmark {code!r}; choose from "
            f"{', '.join(benchmark_codes())}")
    input_size = payload.get("input_size", "small")
    if input_size not in INPUT_SIZES:
        raise JobError(
            f"'input_size' must be one of {INPUT_SIZES}, "
            f"got {input_size!r}")
    mode_value = payload.get("mode", CoherenceMode.DIRECT_STORE.value)
    try:
        mode = _MODES[mode_value]
    except (KeyError, TypeError):
        raise JobError(
            f"'mode' must be one of {sorted(_MODES)}, "
            f"got {mode_value!r}") from None
    return RunPoint(code=code.upper(), input_size=input_size, mode=mode,
                    config=build_config(payload.get("config")),
                    telemetry=build_telemetry(payload.get("telemetry")))


class Job:
    """One deduplicated simulation request and its lifecycle."""

    def __init__(self, fingerprint: str, point: RunPoint) -> None:
        self.fingerprint = fingerprint
        self.point = point
        self.state = JobState.QUEUED
        self.submissions = 1
        self.cached = False  # served straight from the result cache
        self.error: Optional[str] = None
        #: the ``GET /jobs/<id>/result`` response body once done
        self.result_body: Optional[bytes] = None
        self.created = time.time()
        self.history: List[Tuple[str, float]] = [
            (JobState.QUEUED.value, self.created)]
        # provenance once, at admission — identical for every watcher
        self.manifest = run_manifest(point.config)
        self._changed = asyncio.Condition()

    async def advance(self, state: JobState,
                      error: Optional[str] = None) -> None:
        """Transition and wake every watcher.

        A terminal transition drops the point's config: the status
        documents need only its code, input size and mode.
        """
        async with self._changed:
            self.state = state
            if error is not None:
                self.error = error
            if state.terminal:
                self.point = dataclasses.replace(self.point, config=None)
            self.history.append((state.value, time.time()))
            self._changed.notify_all()

    async def stream_states(self) -> AsyncIterator[Dict[str, Any]]:
        """Yield one status document per recorded transition, live.

        Replays history already accumulated, then follows new
        transitions as they happen; ends after the terminal state.
        """
        emitted = 0
        while True:
            async with self._changed:
                await self._changed.wait_for(
                    lambda: len(self.history) > emitted
                    or self.state.terminal)
                pending = self.history[emitted:]
                emitted = len(self.history)
                terminal = self.state.terminal
            for state_value, timestamp in pending:
                yield {"job_id": self.fingerprint, "state": state_value,
                       "time": timestamp}
            if terminal:
                return

    def describe(self) -> Dict[str, Any]:
        """The ``GET /jobs/<id>`` status document."""
        return {
            "job_id": self.fingerprint,
            "state": self.state.value,
            "code": self.point.code,
            "input_size": self.point.input_size,
            "mode": self.point.mode.value,
            "submissions": self.submissions,
            "cached": self.cached,
            "error": self.error,
            "created": self.created,
            "history": [{"state": state, "time": timestamp}
                        for state, timestamp in self.history],
            "manifest": self.manifest,
        }

    async def finish(self, result: RunResult) -> None:
        """Render the result body once, then advance to DONE.

        The body is rendered before any watcher wakes, and the job
        keeps only those bytes, not *result*.
        """
        self.result_body = json_response(200, {
            "job_id": self.fingerprint,
            "state": JobState.DONE.value,
            "cached": self.cached,
            "result": result.to_dict(),
            "manifest": self.manifest,
        }).content
        await self.advance(JobState.DONE)

    def __repr__(self) -> str:
        return (f"Job({self.fingerprint[:12]}…, "
                f"{self.point.code}/{self.point.input_size} "
                f"[{self.point.mode.value}], {self.state.value})")
