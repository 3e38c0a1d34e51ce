"""Smoke checks of a real ``repro serve`` process.

Six concurrent duplicate submissions must run exactly one simulation
and leave exactly one cache entry, and the served result must carry its
provenance.  Dedupe and cache traffic must show on ``/metrics`` and
``/readyz``, and the structured log must carry the job correlation ids.  Over an
in-process server, every path a job can take to its result (simulated,
joined in flight, completed-dedupe hit, disk hit after a restart) must
serve the in-process ``RunResult``.
Run alone with ``python -m pytest -m smoke``.
"""

import contextlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.harness.resultcache import ResultCache
from repro.harness.runner import run_benchmark
from repro.metrics import names, parse_exposition, sum_samples
from repro.serve.client import ServeClient
from repro.serve.jobs import parse_job_payload
from repro.serve.server import ServerThread

pytestmark = pytest.mark.smoke

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
ANNOUNCE = re.compile(r"listening on http://[^:]+:(\d+)")
STARTUP_S = 30.0
SUBMISSIONS = 6
#: the points the serving-path test runs, each in both modes
PATH_CODES = ("LV", "HT", "PT")


@pytest.fixture
def served_port(tmp_path):
    """Start ``repro serve`` on a free port; yield the port.

    The server logs JSON records (``REPRO_LOG=json``) to
    ``tmp_path / "serve.log"``, after its plain announce line.
    """
    log_path = tmp_path / "serve.log"
    env = dict(os.environ, REPRO_LOG="json", PYTHONPATH=os.pathsep.join(
        filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])))
    with open(log_path, "w") as log:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "2", "--cache-dir", str(tmp_path / "cache")],
            stdout=subprocess.DEVNULL, stderr=log, env=env,
            # its own process group, so teardown also stops the pool
            # workers the server forks
            start_new_session=True)
    try:
        deadline = time.monotonic() + STARTUP_S
        while True:
            match = ANNOUNCE.search(log_path.read_text())
            if match:
                break
            if server.poll() is not None or time.monotonic() > deadline:
                pytest.fail("server never announced itself:\n"
                            + log_path.read_text())
            time.sleep(0.1)
        yield int(match.group(1))
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(server.pid, signal.SIGTERM)
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(server.pid, signal.SIGKILL)
            server.wait()


def test_duplicate_submissions_run_one_simulation(served_port):
    client = ServeClient(port=served_port)

    def submit_one(_):
        job = client.submit("VA", "small", "ccsm")
        client.wait(job["job_id"])
        return client.result(job["job_id"])

    with ThreadPoolExecutor(max_workers=SUBMISSIONS) as pool:
        documents = list(pool.map(submit_one, range(SUBMISSIONS)))

    assert all(document == documents[0] for document in documents), \
        "duplicate submissions returned different results"
    assert documents[0]["state"] == "done"
    assert re.fullmatch(r"[0-9a-f]{40}",
                        documents[0]["manifest"]["git_sha"] or "")

    stats = client.stats()
    assert stats["simulations_run"] == 1, stats
    dedupe = stats["dedupe"]
    assert dedupe["inflight_hits"] + dedupe["completed_hits"] == \
        SUBMISSIONS - 1, dedupe
    assert stats["jobs"]["done"] == 1, stats["jobs"]
    assert stats["cache"]["enabled"], stats["cache"]
    assert stats["cache"]["entries"] == 1, stats["cache"]


def test_metrics_readiness_and_job_log(served_port, tmp_path):
    client = ServeClient(port=served_port)
    # 3 submissions, 1 duplicate: the duplicate must be absorbed by
    # dedupe and the repeat of a finished point must hit the cache
    client.submit_and_wait("VA", "small", "ccsm")
    client.submit_and_wait("VA", "small", "direct_store")
    client.submit_and_wait("VA", "small", "ccsm")

    readiness = client.readyz()
    assert readiness["ready"], readiness
    assert not readiness["degraded_to_threads"], readiness

    samples = parse_exposition(client.metrics_text())
    assert sum_samples(samples, names.JOBS_SUBMITTED) == 3
    assert sum_samples(samples, names.JOBS_DEDUPLICATED) >= 1
    assert sum_samples(samples, names.SIMULATIONS) == 2
    assert sum_samples(samples, names.CACHE_PUTS) >= 2
    assert sum_samples(samples, names.CACHE_HITS) \
        + sum_samples(samples, names.CACHE_MISSES) >= 1

    events, jobs = set(), set()
    for line in (tmp_path / "serve.log").read_text().splitlines():
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        events.add(record.get("event"))
        if record.get("job"):
            jobs.add(record["job"])
    assert {"job_admitted", "job_done", "job_deduped"} <= events, events
    assert len(jobs) >= 2, jobs


def test_every_serving_path_returns_the_in_process_result(tmp_path):
    payloads = [{"code": code, "mode": mode} for code in PATH_CODES
                for mode in ("ccsm", "direct_store")]
    expected = []
    for payload in payloads:
        point = parse_job_payload(payload)
        expected.append(run_benchmark(point.code, point.input_size,
                                      point.mode, point.config).to_dict())
    served = {}  # path -> {payload index: served document}
    cache_dir = tmp_path / "cache"

    def results(client, jobs):
        client.wait_many([job["job_id"] for job in jobs.values()])
        return {index: client.result(job["job_id"])
                for index, job in jobs.items()}

    # one worker: the points simulate one at a time, so the second
    # batch finds at least the last one still queued
    with ServerThread(cache=ResultCache(cache_dir), jobs=1,
                      use_processes=False) as server:
        client = ServeClient(port=server.port)
        first = dict(enumerate(client.submit_many(payloads)))
        again = dict(enumerate(client.submit_many(payloads)))
        assert [job["submissions"] for job in first.values()] == [1] * 6
        joins = {index: job for index, job in again.items()
                 if job["state"] != "done"}
        assert len(payloads) - 1 in joins, again
        served["simulated"] = results(client, first)
        served["joined"] = results(client, joins)
        repeat = dict(enumerate(client.submit_many(payloads)))
        assert all(job["state"] == "done" for job in repeat.values())
        served["completed-dedupe"] = results(client, repeat)
        assert client.stats()["simulations_run"] == len(payloads)
    with ServerThread(cache=ResultCache(cache_dir), jobs=1,
                      use_processes=False) as server:
        client = ServeClient(port=server.port)
        disk = dict(enumerate(client.submit_many(payloads)))
        served["disk"] = results(client, disk)
        assert client.stats()["simulations_run"] == 0

    for path, documents in served.items():
        for index, document in documents.items():
            assert document["result"] == expected[index], (path, index)
            assert document["cached"] is (path == "disk"), (path, index)
