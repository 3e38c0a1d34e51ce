"""Tests for the simulation service (payloads, scheduler, HTTP)."""

import asyncio
import dataclasses
import gc
import json
import os
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.config import SystemConfig
from repro.core.metrics import RunResult
from repro.core.protocol_mode import CoherenceMode
from repro.harness.resultcache import ResultCache
from repro.harness.runner import run_benchmark
from repro.serve import ServeClient, ServerThread, ServiceError
from repro.serve.httpd import json_response
from repro.serve.jobs import JobError, JobState, parse_job_payload
from repro.serve.scheduler import JobScheduler

#: the conftest ``tiny_config`` expressed as a service payload override
TINY_CONFIG = {
    "cpu": {"l1d_size": 8 * 1024, "l1i_size": 8 * 1024,
            "l2_size": 64 * 1024, "store_buffer_entries": 16,
            "max_outstanding_drains": 4, "num_mshrs": 8},
    "gpu": {"num_sms": 4, "l1_size": 4 * 1024, "l2_size": 64 * 1024,
            "l2_slices": 2, "mshrs_per_slice": 8},
    "dram": {"size_bytes": 64 * 1024 * 1024},
}


class TestPayloadValidation:
    def test_minimal_payload(self):
        point = parse_job_payload({"code": "va"})
        assert point.code == "VA"
        assert point.input_size == "small"
        assert point.mode is CoherenceMode.DIRECT_STORE
        assert point.config.track_values is False
        assert point.telemetry is None

    def test_config_overrides_applied(self):
        point = parse_job_payload({"code": "VA", "config": TINY_CONFIG})
        assert point.config.gpu.num_sms == 4
        assert point.config.cpu.l1d_size == 8 * 1024
        assert point.config.dram.size_bytes == 64 * 1024 * 1024

    def test_telemetry_sampling(self):
        point = parse_job_payload(
            {"code": "VA", "telemetry": {"sample_interval": 1000}})
        assert point.telemetry.sample_interval == 1000
        zero = parse_job_payload(
            {"code": "VA", "telemetry": {"sample_interval": 0}})
        assert zero.telemetry is None

    @pytest.mark.parametrize("payload, fragment", [
        ("not a dict", "JSON object"),
        ({}, "'code' is required"),
        ({"code": "ZZ"}, "unknown benchmark"),
        ({"code": "VA", "oops": 1}, "unknown payload field"),
        ({"code": "VA", "input_size": "huge"}, "input_size"),
        ({"code": "VA", "mode": "magic"}, "'mode'"),
        ({"code": "VA", "config": {"typo_field": 1}},
         "unknown config field"),
        ({"code": "VA", "config": {"gpu": {"typo": 1}}},
         "unknown config field gpu"),
        ({"code": "VA", "config": {"gpu": 7}}, "takes an object"),
        ({"code": "VA", "telemetry": {"trace": True}}, "tracing"),
        ({"code": "VA", "telemetry": {"sample_interval": -1}},
         "non-negative"),
        ({"code": "VA", "telemetry": {"weird": 1}},
         "unknown telemetry field"),
    ])
    def test_rejects_bad_payloads(self, payload, fragment):
        with pytest.raises(JobError, match=fragment):
            parse_job_payload(payload)

    def test_identical_payloads_share_fingerprint(self):
        async def main():
            scheduler = JobScheduler(jobs=1)
            a = scheduler.fingerprint_of(
                parse_job_payload({"code": "VA", "config": TINY_CONFIG}))
            b = scheduler.fingerprint_of(
                parse_job_payload({"code": "VA", "config": TINY_CONFIG}))
            c = scheduler.fingerprint_of(
                parse_job_payload({"code": "VA"}))
            assert a == b
            assert a != c
        asyncio.run(main())


async def _settled(job):
    """Drain *job*'s live state stream (what ``?watch=1`` serves)."""
    async for _document in job.stream_states():
        pass


def _fake_executor(monkeypatch, delay_s=0.0, error=None):
    """Replace the run-point function with a counting stand-in."""
    import repro.harness.parallel as parallel_module
    calls = []

    def fake_execute(point):
        calls.append((point.code, point.mode.value))
        if delay_s:
            time.sleep(delay_s)
            if parallel_module.execute_point is not fake_execute:
                # the test that started this run is over (a timed-out
                # or cancelled job's thread outlives it): do not load
                # the process with a simulation the next test would see
                raise RuntimeError("run outlived its test")
        if error is not None:
            raise error
        return run_benchmark("VA", "small", CoherenceMode.DIRECT_STORE,
                             point.config)

    monkeypatch.setattr(parallel_module, "execute_point", fake_execute)
    return calls


class TestScheduler:
    """Event-loop-level tests; threads stand in for the process pool."""

    def test_inflight_dedupe_single_execution(self, monkeypatch):
        calls = _fake_executor(monkeypatch, delay_s=0.2)

        async def main():
            scheduler = JobScheduler(jobs=2, use_processes=False)
            payload = {"code": "VA", "config": TINY_CONFIG}
            first = scheduler.submit_payload(payload)
            await asyncio.sleep(0.05)  # let it reach RUNNING
            second = scheduler.submit_payload(payload)
            assert second is first
            assert scheduler.inflight_dedup_hits == 1
            await _settled(first)
            assert first.state is JobState.DONE
            assert first.submissions == 2
            await scheduler.shutdown()

        asyncio.run(main())
        assert len(calls) == 1

    def test_completed_dedupe_returns_finished_job(self, monkeypatch):
        calls = _fake_executor(monkeypatch)

        async def main():
            scheduler = JobScheduler(jobs=1, use_processes=False)
            payload = {"code": "VA", "config": TINY_CONFIG}
            job = scheduler.submit_payload(payload)
            await _settled(job)
            again = scheduler.submit_payload(payload)
            assert again is job
            assert scheduler.completed_dedup_hits == 1
            await scheduler.shutdown()

        asyncio.run(main())
        assert len(calls) == 1

    def test_failure_reported_and_retried_on_resubmit(self, monkeypatch):
        calls = _fake_executor(monkeypatch, error=RuntimeError("boom"))

        async def main():
            scheduler = JobScheduler(jobs=1, use_processes=False)
            payload = {"code": "VA", "config": TINY_CONFIG}
            job = scheduler.submit_payload(payload)
            await _settled(job)
            assert job.state is JobState.FAILED
            assert "boom" in job.error
            retry = scheduler.submit_payload(payload)
            assert retry is not job
            await _settled(retry)
            assert retry.state is JobState.FAILED
            await scheduler.shutdown()

        asyncio.run(main())
        assert len(calls) == 2  # the resubmission really re-ran

    def test_timeout_fails_job(self, monkeypatch):
        _fake_executor(monkeypatch, delay_s=5.0)

        async def main():
            scheduler = JobScheduler(jobs=1, use_processes=False,
                                     timeout_s=0.05)
            job = scheduler.submit_payload(
                {"code": "VA", "config": TINY_CONFIG})
            await _settled(job)
            assert job.state is JobState.FAILED
            assert "timed out" in job.error
            await scheduler.shutdown()

        asyncio.run(main())

    def test_cancel_queued_job(self, monkeypatch):
        _fake_executor(monkeypatch, delay_s=1.0)

        async def main():
            scheduler = JobScheduler(jobs=1, use_processes=False)
            blocker = scheduler.submit_payload(
                {"code": "VA", "config": TINY_CONFIG})
            queued = scheduler.submit_payload({"code": "PT"})
            assert queued.state is JobState.QUEUED
            assert scheduler.cancel(queued.fingerprint)
            await _settled(queued)
            assert queued.state is JobState.CANCELLED
            scheduler.cancel(blocker.fingerprint)
            await _settled(blocker)
            await scheduler.shutdown()

        asyncio.run(main())

    def test_stats_shape(self, monkeypatch, tmp_path):
        _fake_executor(monkeypatch)

        async def main():
            scheduler = JobScheduler(cache=ResultCache(tmp_path), jobs=1,
                                     use_processes=False)
            job = scheduler.submit_payload(
                {"code": "VA", "config": TINY_CONFIG})
            await _settled(job)
            stats = scheduler.stats()
            assert stats["jobs"]["total"] == 1
            assert stats["jobs"]["done"] == 1
            assert stats["simulations_run"] == 1
            assert stats["queue_depth"] == 0
            assert stats["cache"]["enabled"] is True
            assert stats["cache"]["entries"] == 1
            assert stats["cache"]["total_bytes"] > 0
            assert stats["max_workers"] == 1
            await scheduler.shutdown()

        asyncio.run(main())


    def test_failed_cache_write_keeps_finished_job(self, monkeypatch,
                                                   tmp_path, full_disk):
        self._check_failed_cache_write(monkeypatch, tmp_path, full_disk)

    def test_failed_cache_write_on_read_only_disk(self, monkeypatch,
                                                  tmp_path, read_only_disk):
        self._check_failed_cache_write(monkeypatch, tmp_path,
                                       read_only_disk)

    @staticmethod
    def _check_failed_cache_write(monkeypatch, tmp_path, code):
        import io
        from repro import obslog
        from repro.metrics import REGISTRY, names
        _fake_executor(monkeypatch)
        errors = REGISTRY.get(names.CACHE_PUT_ERRORS).labels()
        before = errors.value
        buffer = io.StringIO()
        obslog.configure("json", stream=buffer)

        async def main():
            scheduler = JobScheduler(cache=ResultCache(tmp_path), jobs=1,
                                     use_processes=False)
            job = scheduler.submit_payload(
                {"code": "VA", "config": TINY_CONFIG})
            await _settled(job)
            await scheduler.shutdown()
            return job

        try:
            job = asyncio.run(main())
        finally:
            obslog.reset()
        assert job.state is JobState.DONE
        served = json.loads(job.result_body)
        assert served["result"]["total_ticks"] > 0
        assert errors.value == before + 1
        assert list(tmp_path.rglob("*.tmp")) == []
        records = [json.loads(line)
                   for line in buffer.getvalue().splitlines()]
        failures = [record for record in records
                    if record["event"] == "cache_put_failed"]
        assert [record["job"] for record in failures] == [job.fingerprint]
        assert os.strerror(code) in failures[0]["error"]


def _reachable(job):
    """Every object a job's fields reach through containers and
    dataclasses; its condition variable (and through it the event
    loop) is left out."""
    reached = []
    stack = [value for name, value in vars(job).items()
             if name != "_changed"]
    while stack:
        value = stack.pop()
        reached.append(value)
        if isinstance(value, dict):
            stack.extend(value.keys())
            stack.extend(value.values())
        elif isinstance(value, (list, tuple, set)):
            stack.extend(value)
        elif dataclasses.is_dataclass(value) \
                and not isinstance(value, type):
            stack.extend(vars(value).values())
    return reached


async def _settle_all(jobs):
    """Wait until *jobs* are terminal and their tasks' callbacks ran."""
    for job in jobs:
        await _settled(job)
    for _ in range(3):
        await asyncio.sleep(0)


class TestSettledJobs:
    """A settled job keeps its rendered result body and nothing more."""

    def test_result_body_is_the_json_response_of_the_result(
            self, monkeypatch, tmp_path):
        import repro.harness.parallel as parallel_module
        results = []

        def execute(point):
            results.append(run_benchmark(
                "VA", "small", CoherenceMode.DIRECT_STORE, point.config))
            return results[-1]

        monkeypatch.setattr(parallel_module, "execute_point", execute)
        payload = {"code": "VA", "config": TINY_CONFIG}

        async def serve_once():
            scheduler = JobScheduler(cache=ResultCache(tmp_path), jobs=1,
                                     use_processes=False)
            job = scheduler.submit_payload(payload)
            await _settled(job)
            await scheduler.shutdown()
            return job

        simulated = asyncio.run(serve_once())
        from_disk = asyncio.run(serve_once())  # same cache directory
        assert len(results) == 1
        assert (simulated.cached, from_disk.cached) == (False, True)
        for job in (simulated, from_disk):
            document = {"job_id": job.fingerprint, "state": "done",
                        "cached": job.cached,
                        "result": results[0].to_dict(),
                        "manifest": job.manifest}
            assert job.result_body == json_response(200, document).content

    def test_settled_job_holds_no_result_and_no_config(self,
                                                       monkeypatch):
        _fake_executor(monkeypatch)

        async def main():
            scheduler = JobScheduler(jobs=1, use_processes=False)
            done = scheduler.submit_payload(
                {"code": "VA", "config": TINY_CONFIG})
            blocker = scheduler.submit_payload({"code": "LV"})
            cancelled = scheduler.submit_payload({"code": "PT"})
            assert cancelled.point.config is not None  # needed to run
            scheduler.cancel(cancelled.fingerprint)
            await _settle_all([done, blocker, cancelled])
            await scheduler.shutdown()
            return done, cancelled

        done, cancelled = asyncio.run(main())
        assert done.state is JobState.DONE
        assert cancelled.state is JobState.CANCELLED
        for job in (done, cancelled):
            assert job.point.config is None
            reached = _reachable(job)
            assert not [value for value in reached
                        if isinstance(value, (RunResult, SystemConfig))]
        assert isinstance(done.result_body, bytes)
        assert done.describe()["code"] == "VA"

    def test_settled_jobs_leave_no_task_behind(self, monkeypatch):
        _fake_executor(monkeypatch, error=RuntimeError("boom"))

        async def main():
            scheduler = JobScheduler(jobs=1, use_processes=False)
            payload = {"code": "VA", "config": TINY_CONFIG}
            failed = scheduler.submit_payload(payload)
            await _settled(failed)
            # the retry takes the fingerprint's entry while the failed
            # job's task may still be finishing; that entry must stay
            retry = scheduler.submit_payload(payload)
            await asyncio.sleep(0)
            assert scheduler._tasks[retry.fingerprint].done() is False
            others = [scheduler.submit_payload({"code": code})
                      for code in ("LV", "PT")]
            scheduler.cancel(others[1].fingerprint)
            await _settle_all([retry] + others)
            assert scheduler._tasks == {}
            assert scheduler.cancel(retry.fingerprint) is False
            await scheduler.shutdown()

        asyncio.run(main())

    def test_settled_jobs_retain_under_12_kb_each(self, monkeypatch):
        """100 settled jobs, served as cache hits are (a result parsed
        from JSON), retain under 12 KB each by tracemalloc.

        The body of this VA small point is 7.5 KB, and a job retains
        about 10.7 KB.  While a done job kept its live ``RunResult``,
        its ``SystemConfig`` and its finished ``asyncio.Task``, the same
        measurement read 32.5 KB per job.
        """
        import repro.harness.parallel as parallel_module
        config = parse_job_payload({"code": "VA"}).config
        rendered = json.dumps(run_benchmark(
            "VA", "small", CoherenceMode.DIRECT_STORE, config).to_dict())
        monkeypatch.setattr(
            parallel_module, "execute_point",
            lambda point: RunResult.from_dict(json.loads(rendered)))
        count = 100

        async def settle(scheduler, hops):
            jobs = [scheduler.submit_payload(
                {"code": "VA",
                 "config": {"network": {"hop_latency_cycles": hop}}})
                for hop in hops]
            await _settle_all(jobs)
            assert all(job.state is JobState.DONE for job in jobs)

        async def main():
            scheduler = JobScheduler(jobs=1, use_processes=False)
            # warm-up: the worker thread, metric labels, the manifest
            await settle(scheduler, [1000])
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                await settle(scheduler, range(1, count + 1))
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            await scheduler.shutdown()
            return retained

        per_job = asyncio.run(main()) / count
        assert per_job < 12 * 1024, f"{per_job:.0f} B retained per job"


@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    """One real server (process pool, persistent cache) for the module."""
    cache_dir = tmp_path_factory.mktemp("serve_cache")
    with ServerThread(cache=ResultCache(cache_dir), jobs=2) as server:
        yield server


@pytest.fixture(scope="module")
def live_client(live_server):
    return ServeClient("127.0.0.1", live_server.port)


class TestServiceIntegration:
    """The acceptance path: concurrent dedupe over real simulations."""

    def test_concurrent_identical_submissions_run_once(self, live_client):
        submissions = 6

        def submit(_):
            return live_client.submit("VA", "small", "direct_store",
                                      config=TINY_CONFIG)

        with ThreadPoolExecutor(submissions) as pool:
            jobs = list(pool.map(submit, range(submissions)))
        job_ids = {job["job_id"] for job in jobs}
        assert len(job_ids) == 1  # all coalesced onto one fingerprint
        job_id = job_ids.pop()

        final = live_client.wait(job_id)
        assert final["state"] == "done"
        assert final["submissions"] == submissions

        documents = [live_client.result(job_id)
                     for _ in range(submissions)]
        first = documents[0]["result"]
        assert all(doc["result"] == first for doc in documents)

        # bit-identical to an in-process run of the same point
        point = parse_job_payload({"code": "VA",
                                   "config": TINY_CONFIG})
        local = run_benchmark("VA", "small", CoherenceMode.DIRECT_STORE,
                              point.config)
        assert first == local.to_dict()

        stats = live_client.stats()
        assert stats["simulations_run"] == 1
        assert (stats["dedupe"]["inflight_hits"]
                + stats["dedupe"]["completed_hits"]) == submissions - 1

    def test_status_history_and_manifest(self, live_client):
        job = live_client.submit("VA", config=TINY_CONFIG)
        status = live_client.wait(job["job_id"])
        states = [entry["state"] for entry in status["history"]]
        assert states[0] == "queued"
        assert states[-1] == "done"
        assert status["manifest"]["python_version"]
        assert "config_fingerprint" in status["manifest"]

    def test_watch_streams_transitions(self, live_client):
        job = live_client.submit("VA", config=TINY_CONFIG)
        transitions = [t["state"]
                       for t in live_client.watch(job["job_id"])]
        assert transitions[-1] == "done"

    def test_resubmit_after_done_is_immediate(self, live_client):
        live_client.submit_and_wait("VA", config=TINY_CONFIG)
        job = live_client.submit("VA", config=TINY_CONFIG)
        assert job["state"] == "done"

    def test_cache_hit_across_server_restart(self, live_client,
                                             live_server):
        result = live_client.submit_and_wait("VA", config=TINY_CONFIG)
        cache_dir = live_server.server.scheduler.cache.directory
        with ServerThread(cache=ResultCache(cache_dir), jobs=1) as fresh:
            client = ServeClient("127.0.0.1", fresh.port)
            warm = client.submit_and_wait("VA", config=TINY_CONFIG)
            assert warm.to_dict() == result.to_dict()
            stats = client.stats()
            assert stats["simulations_run"] == 0  # pure cache hit
            assert stats["cache"]["hits"] >= 1

    def test_http_errors(self, live_client):
        with pytest.raises(ServiceError) as bad_payload:
            live_client.submit("ZZ")
        assert bad_payload.value.status == 400
        with pytest.raises(ServiceError) as unknown:
            live_client.status("deadbeef")
        assert unknown.value.status == 404
        with pytest.raises(ServiceError) as unknown_result:
            live_client.result("deadbeef")
        assert unknown_result.value.status == 404

    def test_healthz_and_stats_document(self, live_client):
        assert live_client.healthz() is True
        stats = live_client.stats()
        for key in ("uptime_s", "max_workers", "executor", "jobs",
                    "queue_depth", "dedupe", "simulations_run", "cache"):
            assert key in stats
        assert stats["cache"]["directory"]
        assert stats["cache"]["shard_dirs"] >= 1

    def test_result_before_done_conflicts(self, monkeypatch):
        calls = _fake_executor(monkeypatch, delay_s=0.5)
        with ServerThread(jobs=1, use_processes=False) as server:
            client = ServeClient("127.0.0.1", server.port)
            job = client.submit("VA", config=TINY_CONFIG)
            with pytest.raises(ServiceError) as not_ready:
                client.result(job["job_id"])
            assert not_ready.value.status == 409
            client.wait(job["job_id"])
            assert client.result(job["job_id"])["state"] == "done"
        assert len(calls) == 1

    def test_cancel_endpoint(self, monkeypatch):
        _fake_executor(monkeypatch, delay_s=2.0)
        with ServerThread(jobs=1, use_processes=False) as server:
            client = ServeClient("127.0.0.1", server.port)
            blocker = client.submit("VA", config=TINY_CONFIG)
            queued = client.submit("PT", config=TINY_CONFIG)
            answer = client.cancel(queued["job_id"])
            assert answer["cancelled"] is True
            final = client.wait(queued["job_id"])
            assert final["state"] == "cancelled"
            with pytest.raises(ServiceError) as gone:
                client.result(queued["job_id"])
            assert gone.value.status == 409
            client.cancel(blocker["job_id"])


class TestBatchSubmission:
    """POST /jobs/batch: one round trip, dedupe, all-or-nothing."""

    def test_submit_many_round_trip(self, live_client):
        payloads = [
            {"code": "VA", "mode": "direct_store", "config": TINY_CONFIG},
            {"code": "VA", "mode": "ccsm", "config": TINY_CONFIG},
        ]
        jobs = live_client.submit_many(payloads)
        assert len(jobs) == 2
        ids = [job["job_id"] for job in jobs]
        assert ids[0] != ids[1]  # different points, different prints
        statuses = live_client.wait_many(ids)
        assert set(statuses) == set(ids)
        assert all(s["state"] == "done" for s in statuses.values())
        assert live_client.run_result(ids[0]).total_ticks > 0

    def test_duplicates_in_batch_coalesce(self, live_client):
        point = {"code": "PT", "mode": "direct_store",
                 "config": TINY_CONFIG}
        before = live_client.stats()["simulations_run"]
        jobs = live_client.submit_many([point, point, point])
        ids = [job["job_id"] for job in jobs]
        assert len(set(ids)) == 1  # one fingerprint, one job
        statuses = live_client.wait_many(ids)
        assert len(statuses) == 1  # waited once
        assert statuses[ids[0]]["state"] == "done"
        assert live_client.stats()["simulations_run"] <= before + 1

    def test_bad_item_admits_nothing(self, live_client):
        before = live_client.stats()["jobs"]["total"]
        with pytest.raises(ServiceError) as bad:
            live_client.submit_many([
                {"code": "VA", "config": TINY_CONFIG},
                {"code": "NOPE"},
            ])
        assert bad.value.status == 400
        assert "jobs[1]" in bad.value.message
        assert live_client.stats()["jobs"]["total"] == before

    def test_batch_shape_and_size_limits(self, live_client):
        from repro.serve.server import MAX_BATCH_JOBS
        with pytest.raises(ServiceError):
            live_client.submit_many([])
        with pytest.raises(ServiceError) as oversize:
            live_client.submit_many(
                [{"code": "VA"}] * (MAX_BATCH_JOBS + 1))
        assert str(MAX_BATCH_JOBS) in oversize.value.message
        with pytest.raises(ServiceError) as shapeless:
            live_client._request("POST", "/jobs/batch", {"points": []})
        assert shapeless.value.status == 400

    def test_all_terminal_batch_returns_200(self, live_client):
        point = {"code": "VA", "mode": "direct_store",
                 "config": TINY_CONFIG}
        live_client.submit_many([point])
        live_client.wait_many(
            [job["job_id"] for job in live_client.submit_many([point])])
        # every job in this batch is now a completed-dedupe hit
        jobs = live_client.submit_many([point, point])
        assert all(job["state"] == "done" for job in jobs)


class TestObservabilityEndpoints:
    """GET /metrics, /readyz, /stats?v=2 and client-side plumbing."""

    def test_metrics_exposition_covers_families(self, live_client):
        from repro.metrics import names, parse_exposition, sample_value
        live_client.submit_and_wait("VA", config=TINY_CONFIG)
        live_client.submit("VA", config=TINY_CONFIG)  # completed dedupe
        text = live_client.metrics_text()
        samples = parse_exposition(text)
        # scheduler, cache, runner, and HTTP families all present
        assert sample_value(samples, names.JOBS_SUBMITTED) >= 2
        assert sample_value(samples, names.JOBS_DEDUPLICATED,
                            kind="completed") >= 1
        assert sample_value(samples, names.JOBS_SETTLED,
                            state="done") >= 1
        assert sample_value(samples, names.UPTIME_SECONDS) > 0
        assert f"# TYPE {names.CACHE_HITS} counter" in text
        assert sample_value(samples, names.HTTP_REQUESTS,
                            route="/metrics", method="GET",
                            status="200") >= 0  # this scrape not yet in
        assert sample_value(samples, names.HTTP_REQUESTS, route="/jobs",
                            method="POST", status="200") \
            + sample_value(samples, names.HTTP_REQUESTS, route="/jobs",
                           method="POST", status="202") >= 1
        # job wall-time histogram carries the run
        assert sample_value(samples, f"{names.JOB_WALL_SECONDS}_count",
                            state="done") >= 1

    def test_readyz_healthy_server(self, live_client):
        document = live_client.readyz()
        assert document["ready"] is True
        assert document["degraded_to_threads"] is False

    def test_readyz_degraded_returns_503(self, monkeypatch):
        _fake_executor(monkeypatch)
        with ServerThread(jobs=1, use_processes=False) as server:
            scheduler = server.server.scheduler
            # force what a broken process pool does to a process-pool
            # server: _use_processes None + thread fallback
            scheduler._use_processes = None
            scheduler._mark_degraded("test-forced")
            client = ServeClient("127.0.0.1", server.port)
            with pytest.raises(ServiceError) as not_ready:
                client.readyz()
            assert not_ready.value.status == 503
            assert "degraded_to_threads" in not_ready.value.message \
                or not_ready.value.message  # body surfaced either way
            # liveness is unaffected
            assert client.healthz() is True
            assert client.stats()["degraded_to_threads"] is True

    def test_explicit_thread_mode_is_not_degraded(self, monkeypatch):
        _fake_executor(monkeypatch)
        with ServerThread(jobs=1, use_processes=False) as server:
            client = ServeClient("127.0.0.1", server.port)
            job = client.submit("VA", config=TINY_CONFIG)
            client.wait(job["job_id"])
            assert client.readyz()["ready"] is True

    def test_stats_v2_merges_metrics(self, live_client):
        from repro.metrics import names
        document = live_client.stats(v2=True)
        assert "metrics" in document
        assert names.JOBS_SUBMITTED in document["metrics"]
        assert "uptime_s" in document  # v1 keys intact
        assert "metrics" not in live_client.stats()

    def test_error_body_surfaced_for_non_json(self, monkeypatch):
        """A non-JSON error body lands in the exception, not a crash."""
        from repro.serve.client import _error_message
        assert _error_message(b"upstream proxy exploded") \
            == "upstream proxy exploded"
        assert _error_message(b"") == "empty error body"
        assert _error_message(b'{"error": "real reason"}') \
            == "real reason"
        assert _error_message(b'["not", "a", "dict"]') \
            == '["not", "a", "dict"]'

    def test_client_retries_refused_connection(self, monkeypatch):
        from repro.serve import client as client_module
        attempts = []

        class RefusingConnection:
            def __init__(self, *args, **kwargs):
                pass

            def request(self, *args, **kwargs):
                attempts.append(1)
                raise ConnectionRefusedError("refused")

            def close(self):
                pass

        monkeypatch.setattr(client_module.http.client,
                            "HTTPConnection", RefusingConnection)
        monkeypatch.setattr(client_module.time, "sleep",
                            lambda _s: None)
        client = ServeClient("127.0.0.1", 9, retries=2)
        with pytest.raises(ConnectionRefusedError):
            client.healthz()
        assert len(attempts) == 3  # initial try + 2 retries

    def test_client_retries_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_CLIENT_RETRIES", "7")
        assert ServeClient().retries == 7
        monkeypatch.setenv("REPRO_CLIENT_RETRIES", "nope")
        with pytest.raises(ValueError, match="REPRO_CLIENT_RETRIES"):
            ServeClient()
        monkeypatch.delenv("REPRO_CLIENT_RETRIES")
        assert ServeClient().retries == 3
        assert ServeClient(retries=0).retries == 0

    def test_route_label_cardinality(self):
        from repro.serve.server import route_label
        assert route_label(("jobs", "a" * 64)) == "/jobs/<id>"
        assert route_label(("jobs", "x", "result")) \
            == "/jobs/<id>/result"
        assert route_label(("jobs", "batch")) == "/jobs/batch"
        assert route_label(("metrics",)) == "/metrics"
        assert route_label(("etc", "passwd")) == "<unmatched>"
        assert route_label(()) == "<unmatched>"

    def test_server_emits_structured_logs(self, monkeypatch):
        import io
        from repro import obslog
        _fake_executor(monkeypatch)
        buffer = io.StringIO()
        obslog.configure("json", stream=buffer)
        try:
            with ServerThread(jobs=1, use_processes=False) as server:
                client = ServeClient("127.0.0.1", server.port)
                job = client.submit("VA", config=TINY_CONFIG)
                client.wait(job["job_id"])
                client.submit("VA", config=TINY_CONFIG)
        finally:
            obslog.reset()
        records = [json.loads(line)
                   for line in buffer.getvalue().splitlines()]
        events = [record["event"] for record in records]
        assert "job_admitted" in events
        assert "job_done" in events
        assert "job_deduped" in events
        # the correlation id threads through the job's whole story
        fingerprint = job["job_id"]
        story = [record["event"] for record in records
                 if record.get("job") == fingerprint]
        assert {"job_admitted", "job_done",
                "job_deduped"} <= set(story)
        # HTTP access records carry the route pattern, not the raw path
        routes = {record["route"] for record in records
                  if record["event"] == "request"}
        assert "/jobs" in routes


class TestCliIntegration:
    def test_submit_command_round_trip(self, live_server, capsys):
        from repro.cli import main
        url = f"http://127.0.0.1:{live_server.port}"
        assert main(["submit", "PT", "--url", url]) == 0
        out = capsys.readouterr().out
        assert "PT/small" in out and "ticks" in out

    def test_submit_no_wait_prints_job_id(self, live_server, capsys):
        from repro.cli import main
        url = f"http://127.0.0.1:{live_server.port}"
        assert main(["submit", "PT", "--no-wait", "--url", url]) == 0
        job_id = capsys.readouterr().out.strip()
        assert len(job_id) == 64  # a sha256 fingerprint
        client = ServeClient("127.0.0.1", live_server.port)
        client.wait(job_id)

    def test_submit_unreachable_server(self, capsys):
        from repro.cli import main
        assert main(["submit", "VA",
                     "--url", "http://127.0.0.1:9"]) == 1
        assert "repro submit" in capsys.readouterr().err

    def test_submit_rejected_payload(self, live_server, capsys):
        from repro.cli import main
        url = f"http://127.0.0.1:{live_server.port}"
        assert main(["submit", "VA", "--input-size", "small",
                     "--mode", "direct_store", "--url", url]) == 0
        capsys.readouterr()
        # unknown code is rejected server-side with a clean error
        assert main(["submit", "ZZ", "--url", url]) == 1
        assert "unknown benchmark" in capsys.readouterr().err
