"""Smoke check of a real ``repro serve`` process.

Six concurrent duplicate submissions must run exactly one simulation
and leave exactly one cache entry, and the served result must carry its
provenance.  Run alone with ``python -m pytest -m smoke``.
"""

import contextlib
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.serve.client import ServeClient

pytestmark = pytest.mark.smoke

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
ANNOUNCE = re.compile(r"listening on http://[^:]+:(\d+)")
STARTUP_S = 30.0
SUBMISSIONS = 6


@pytest.fixture
def served_port(tmp_path):
    """Start ``repro serve`` on a free port; yield the port."""
    log_path = tmp_path / "serve.log"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
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
