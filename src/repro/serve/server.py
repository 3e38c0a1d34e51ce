"""The simulation service: routes, entry points, test harness.

Endpoints (see ``docs/SERVICE.md``):

``POST /jobs``                submit a point; 202 + job id (the run
                              fingerprint); identical in-flight
                              submissions coalesce onto one execution
``POST /jobs/batch``          submit up to ``MAX_BATCH_JOBS`` points in
                              one round trip; the whole batch is
                              validated before any job is admitted, and
                              duplicate points coalesce onto one job
``GET /jobs/<id>``            job status; ``?watch=1`` streams NDJSON
                              state transitions until terminal
``GET /jobs/<id>/result``     the finished ``RunResult`` document
``DELETE /jobs/<id>``         cancel a queued/running job
``GET /stats``                cache, dedupe, queue and executor stats;
                              ``?v=2`` adds the metrics snapshot
``GET /metrics``              Prometheus text exposition of the
                              service registry
``GET /healthz``              liveness probe
``GET /readyz``               readiness probe; 503 while the executor
                              is degraded to threads

:func:`run_server` blocks a CLI process; :class:`ServerThread` hosts
the same server on a daemon thread for tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from typing import Optional, Tuple, Union

from repro import obslog
from repro.harness.resultcache import ResultCache
from repro.metrics import REGISTRY
from repro.metrics import names as metric_names
from repro.serve import httpd
from repro.serve.httpd import (BadRequest, Request, Response,
                               StreamResponse, error_response,
                               json_response)
from repro.serve.jobs import JobError, JobState, parse_job_payload
from repro.serve.scheduler import JobScheduler

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8787

#: upper bound on points accepted by one ``POST /jobs/batch``
MAX_BATCH_JOBS = 64

#: the ``Content-Type`` Prometheus scrapers expect from ``/metrics``
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_LOG = obslog.get_logger("serve.http")

_METRIC_REQUESTS = metric_names.declare(REGISTRY,
                                        metric_names.HTTP_REQUESTS)
_METRIC_REQUEST_SECONDS = metric_names.declare(
    REGISTRY, metric_names.HTTP_REQUEST_SECONDS)


def route_label(segments: Tuple[str, ...]) -> str:
    """The low-cardinality route *pattern* a request matched.

    Metric labels must never carry raw paths (every job id would mint
    a new time-series), so job ids collapse to ``<id>`` and anything
    unrecognised collapses to one bucket.
    """
    if segments in (("healthz",), ("readyz",), ("stats",),
                    ("metrics",), ("jobs",), ("jobs", "batch")):
        return "/" + "/".join(segments)
    if len(segments) == 2 and segments[0] == "jobs":
        return "/jobs/<id>"
    if len(segments) == 3 and segments[0] == "jobs" \
            and segments[2] == "result":
        return "/jobs/<id>/result"
    return "<unmatched>"


class ReproServer:
    """Routes HTTP requests onto a :class:`JobScheduler`."""

    def __init__(self, scheduler: Optional[JobScheduler] = None,
                 **scheduler_kwargs) -> None:
        self.scheduler = scheduler or JobScheduler(**scheduler_kwargs)
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self, host: str = DEFAULT_HOST,
                    port: int = DEFAULT_PORT) -> asyncio.AbstractServer:
        self._server = await asyncio.start_server(self._handle, host,
                                                  port)
        return self._server

    @property
    def port(self) -> int:
        """The bound port (useful after starting on port 0)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.shutdown()

    # -- connection handling -------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await httpd.read_request(reader)
            except (BadRequest, asyncio.IncompleteReadError) as exc:
                await httpd.write_response(
                    writer, error_response(400, str(exc)))
                return
            if request is None:
                return
            start = time.perf_counter()
            try:
                response = await self._route(request)
            except JobError as exc:
                response = error_response(400, str(exc))
            except Exception as exc:  # a handler bug must not kill the server
                response = error_response(500, repr(exc))
            self._observe_request(request, response.status,
                                  time.perf_counter() - start)
            if isinstance(response, StreamResponse):
                await httpd.write_stream(writer, response)
            else:
                await httpd.write_response(writer, response)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _observe_request(self, request: Request, status: int,
                         elapsed_s: float) -> None:
        """Per-route metrics + one access-log record per request.

        Handler latency only — a ``?watch=1`` stream can stay open for
        a job's whole lifetime, which is the job's story, not the
        router's.
        """
        segments = httpd.split_path(request.path)
        route = route_label(segments)
        _METRIC_REQUESTS.labels(route=route, method=request.method,
                                status=str(status)).inc()
        _METRIC_REQUEST_SECONDS.labels(route=route).observe(elapsed_s)
        if _LOG.enabled:
            fields = {"route": route, "method": request.method,
                      "status": status,
                      "elapsed_s": round(elapsed_s, 6)}
            if route.startswith("/jobs/<id>"):
                fields["job"] = segments[1]
            _LOG.info("request", **fields)

    # -- routing -------------------------------------------------------

    async def _route(self, request: Request
                     ) -> Union[Response, StreamResponse]:
        segments = httpd.split_path(request.path)
        if segments == ("healthz",) and request.method == "GET":
            return json_response(200, {"ok": True})
        if segments == ("readyz",) and request.method == "GET":
            readiness = self.scheduler.readiness()
            return json_response(200 if readiness["ready"] else 503,
                                 readiness)
        if segments == ("metrics",) and request.method == "GET":
            self.scheduler.refresh_gauges()
            return Response(200, REGISTRY.render().encode("utf-8"),
                            content_type=METRICS_CONTENT_TYPE)
        if segments == ("stats",) and request.method == "GET":
            document = self.scheduler.stats()
            if request.query.get("v") == "2":
                self.scheduler.refresh_gauges()
                document["metrics"] = REGISTRY.snapshot()
            return json_response(200, document)
        if segments == ("jobs",) and request.method == "POST":
            return self._submit(request)
        if segments == ("jobs", "batch") and request.method == "POST":
            return self._submit_batch(request)
        if len(segments) >= 2 and segments[0] == "jobs":
            job = self.scheduler.get(segments[1])
            if job is None:
                return error_response(404,
                                      f"unknown job {segments[1]!r}")
            if len(segments) == 2 and request.method == "GET":
                if request.query.get("watch"):
                    return StreamResponse(self._watch(job))
                return json_response(200, job.describe())
            if len(segments) == 2 and request.method == "DELETE":
                cancelled = self.scheduler.cancel(job.fingerprint)
                return json_response(200, {
                    "job_id": job.fingerprint, "cancelled": cancelled,
                    "state": job.state.value})
            if segments[2:] == ("result",) and request.method == "GET":
                return self._result(job)
        return error_response(404, f"no route for "
                              f"{request.method} {request.path}")

    def _submit(self, request: Request) -> Response:
        job = self.scheduler.submit_payload(request.json())
        status = 200 if job.state.terminal else 202
        return json_response(status, job.describe())

    def _submit_batch(self, request: Request) -> Response:
        """Admit a whole batch of points in one round trip.

        Every payload is validated *before* any job is admitted, so a
        malformed item rejects the batch without side effects.
        Duplicate points inside the batch coalesce onto one job (the
        job id is the run fingerprint), so the response may repeat
        job ids — positions match the submitted order.
        """
        document = request.json()
        if not isinstance(document, dict) or "jobs" not in document:
            raise JobError('batch payload must be {"jobs": [...]}')
        payloads = document["jobs"]
        if not isinstance(payloads, list) or not payloads:
            raise JobError('"jobs" must be a non-empty list')
        if len(payloads) > MAX_BATCH_JOBS:
            raise JobError(f"batch of {len(payloads)} exceeds the "
                           f"limit of {MAX_BATCH_JOBS} jobs")
        points = []
        for index, payload in enumerate(payloads):
            try:
                points.append(parse_job_payload(payload))
            except JobError as exc:
                raise JobError(f"jobs[{index}]: {exc}") from exc
        jobs = [self.scheduler.submit(point) for point in points]
        status = 200 if all(job.state.terminal for job in jobs) else 202
        return json_response(status,
                             {"jobs": [job.describe() for job in jobs]})

    def _result(self, job) -> Response:
        if job.state is JobState.DONE:
            return Response(200, job.result_body)
        if job.state is JobState.QUEUED or job.state is JobState.RUNNING:
            return error_response(
                409, f"job is {job.state.value}; result not ready")
        return error_response(
            409, f"job {job.state.value}: {job.error or 'no result'}")

    @staticmethod
    async def _watch(job):
        async for document in job.stream_states():
            yield (json.dumps(document) + "\n").encode()


async def serve_forever(host: str = DEFAULT_HOST,
                        port: int = DEFAULT_PORT,
                        cache: Optional[ResultCache] = None,
                        jobs: Optional[int] = None,
                        timeout_s: Optional[float] = None,
                        ready: Optional[threading.Event] = None,
                        announce: bool = False) -> None:
    """Start a server and run until cancelled."""
    server = ReproServer(cache=cache, jobs=jobs, timeout_s=timeout_s)
    await server.start(host, port)
    if announce:
        print(f"repro serve: listening on http://{host}:{server.port} "
              f"(workers={server.scheduler.max_workers}, "
              f"cache={'off' if cache is None else cache.directory})",
              file=sys.stderr, flush=True)
    if ready is not None:
        ready.set()
    try:
        async with server._server:
            await server._server.serve_forever()
    finally:
        await server.stop()


def run_server(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
               cache: Optional[ResultCache] = None,
               jobs: Optional[int] = None,
               timeout_s: Optional[float] = None) -> int:
    """Blocking entry point for ``python -m repro serve``."""
    try:
        asyncio.run(serve_forever(host, port, cache=cache, jobs=jobs,
                                  timeout_s=timeout_s, announce=True))
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    return 0


class ServerThread:
    """A live server on a daemon thread — tests and benchmarks.

    ::

        with ServerThread(cache=ResultCache(tmp)) as server:
            client = ServeClient("127.0.0.1", server.port)
            ...
    """

    def __init__(self, host: str = DEFAULT_HOST, port: int = 0,
                 **scheduler_kwargs) -> None:
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self.server: Optional[ReproServer] = None
        self._scheduler_kwargs = scheduler_kwargs
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread failed to start")
        if self._startup_error is not None:
            raise RuntimeError("server thread failed to start") \
                from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            loop.close()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        try:
            self.server = ReproServer(**self._scheduler_kwargs)
            await self.server.start(self.host, self._requested_port)
            self.port = self.server.port
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            raise
        self._ready.set()
        await self._stop.wait()
        await self.server.stop()

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
