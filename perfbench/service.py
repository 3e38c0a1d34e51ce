"""``service-mix``: a closed loop of 2 clients against a live job server.

A real in-process :class:`ServerThread` serves a seeded job stream over
HTTP; its scheduler simulates on one worker thread.  The stream comes
in rounds of ``ROUND_JOBS`` jobs, and a round runs in two phases:

* fresh: one point of each of the ``FRESH_CODES`` (short codes with
  alternating modes and a seeded crossbar hop latency, so the point
  misses the cache), one point at a time; both clients submit it at once, so one job
  simulates and the other joins it in flight;
* repeat: ``REPEATS_PER_ROUND`` points drawn from the stream so far,
  split between the clients.  A repeat is a completed-dedupe hit or,
  the first time a point is asked for after the one server restart
  halfway through the run over the same cache directory, a disk hit.

Each client waits for its reply before taking its next job.  The whole
workload is one process, and one thread of it is busy at a time: the
simulation thread in the fresh phase, the HTTP server and the clients
in the repeat phase.  Every round asks for the same work in the same
order, so a round's time follows the serving path, not the scheduling
of more busy threads than the host has cores.
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import (log, median, peak_rss_mb, percentile, ratio, summary,
                    timed_setup, work_dir)
from layertrace import HARNESS_LAYERS, SERVE_LAYERS, LayerTracer

from repro.core.protocol_mode import CoherenceMode
from repro.harness.resultcache import ResultCache
from repro.harness.runner import run_benchmark
from repro.serve.client import ServeClient
from repro.serve.jobs import build_config
from repro.serve.server import ServerThread

#: one fresh point of each code per round, in seeded order; in-process
#: host ms (ccsm / direct store): LV 80/62, HT 143/123, PT 105/101
FRESH_CODES = ("LV", "HT", "PT")
MODES = ("ccsm", "direct_store")
#: fresh points draw the crossbar hop latency from this range
HOP_RANGE = (1, 240)
#: hop latency of the first warm-up job, above every stream's range
WARMUP_HOP = 480
REPEATS_PER_ROUND = 10
CLIENTS = 2
#: every fresh point is submitted once by each client
ROUND_JOBS = CLIENTS * len(FRESH_CODES) + REPEATS_PER_ROUND
SERVER_JOBS = 1
JOB_TIMEOUT_S = 60.0
#: distinct points re-run in-process per run to check the served ticks
INPROCESS_CHECKS = 4


class JobStream:
    """The seeded job stream: rounds of fresh points and repeats."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.points: List[Dict] = []
        self._seen = set()

    def _fresh(self, code: str, mode: str) -> Dict:
        while True:
            key = (code, mode, self.rng.randint(*HOP_RANGE))
            if key not in self._seen:
                self._seen.add(key)
                hop = key[2]
                return {"code": code, "input_size": "small", "mode": mode,
                        "config": {"network": {"hop_latency_cycles": hop}}}

    def next_round(self) -> Tuple[List[Dict], List[Dict]]:
        """(fresh points, repeats) of the next round."""
        # the codes alternate modes, starting from a seeded one, so
        # every round simulates about the same work
        flip = self.rng.randrange(len(MODES))
        modes = {code: MODES[(index + flip) % len(MODES)]
                 for index, code in enumerate(FRESH_CODES)}
        fresh = [self._fresh(code, modes[code]) for code in
                 self.rng.sample(FRESH_CODES, len(FRESH_CODES))]
        self.points.extend(fresh)
        repeats = [self.rng.choice(self.points)
                   for _ in range(REPEATS_PER_ROUND)]
        return fresh, repeats


def payload_key(payload: Dict) -> str:
    hop = payload["config"]["network"]["hop_latency_cycles"]
    return f"{payload['code']}/{payload['mode']}/hop{hop}"


class Server:
    """One warmed-up server instance over the run's cache directory.

    The scheduler runs simulations on a thread of this process
    (``use_processes=False``), so the whole workload is one process.
    The warm-up job (*warmup_hop* must be new to the cache) simulates
    once before anything is timed.
    """

    def __init__(self, cache_dir, warmup_hop: int) -> None:
        self.cache = ResultCache(cache_dir)
        self.thread = ServerThread(cache=self.cache, jobs=SERVER_JOBS,
                                   use_processes=False)
        self.thread.__enter__()
        self.clients = [ServeClient(port=self.thread.port)
                        for _ in range(CLIENTS)]
        warmup = run_job(self.clients[0], {
            "code": "PT", "input_size": "small", "mode": "ccsm",
            "config": {"network": {"hop_latency_cycles": warmup_hop}}})
        if warmup.error is not None:
            self.stop()
            raise RuntimeError(f"warm-up job failed: {warmup.error}")
        self.submitted = 1

    def stats(self) -> Dict:
        return self.clients[0].stats()

    def stop(self) -> None:
        self.thread.__exit__(None, None, None)


class Outcome:
    __slots__ = ("key", "latency_ms", "kind", "ticks", "queue_wait_ms",
                 "error")

    def __init__(self, key: str) -> None:
        self.key = key
        self.latency_ms = 0.0
        self.kind = "failed"
        self.ticks: Optional[int] = None
        self.queue_wait_ms: Optional[float] = None
        self.error: Optional[str] = None


def run_job(client: ServeClient, payload: Dict) -> Outcome:
    outcome = Outcome(payload_key(payload))
    start = time.perf_counter()
    try:
        submitted = client.submit(payload["code"], payload["input_size"],
                                  payload["mode"], config=payload["config"])
        final = client.wait(submitted["job_id"], timeout_s=JOB_TIMEOUT_S)
        if final["state"] != "done":
            outcome.error = f"job {final['state']}: {final.get('error')}"
            return outcome
        outcome.ticks = client.run_result(submitted["job_id"]).total_ticks
    except Exception as exc:  # counted as a failed job
        outcome.error = repr(exc)
        return outcome
    finally:
        outcome.latency_ms = 1000.0 * (time.perf_counter() - start)
    if submitted["submissions"] == 1:
        outcome.kind = "disk" if final["cached"] else "sim"
    else:
        outcome.kind = "dedupe" if submitted["state"] == "done" else "join"
    if outcome.kind == "sim":
        times = {entry["state"]: entry["time"] for entry in final["history"]}
        if "running" in times:
            outcome.queue_wait_ms = 1000.0 * (times["running"]
                                              - times["queued"])
    return outcome


def run_lists(server: Server, lists: List[List[Dict]],
              tracer: Optional[LayerTracer], label: str) -> List[Outcome]:
    """Client *i* runs ``lists[i]`` in order; all clients at once."""
    results: List[List[Outcome]] = [[] for _ in lists]

    def client_loop(index: int) -> None:
        client, done = server.clients[index], results[index]
        for number, payload in enumerate(lists[index]):
            if tracer is None:
                done.append(run_job(client, payload))
            else:
                with tracer.op("job", f"{label}.c{index}.{number}"):
                    done.append(run_job(client, payload))

    threads = [threading.Thread(target=client_loop, args=(index,))
               for index in range(len(lists))]
    for thread in threads:
        thread.start()
    for thread, jobs in zip(threads, lists):
        thread.join(timeout=JOB_TIMEOUT_S * (len(jobs) + 1))
        if thread.is_alive():
            raise RuntimeError("client thread did not finish its jobs")
    server.submitted += sum(len(jobs) for jobs in lists)
    return [outcome for done in results for outcome in done]


def run_round(server: Server, fresh: List[Dict], repeats: List[Dict],
              tracer: Optional[LayerTracer], round_index: int
              ) -> List[Outcome]:
    outcomes: List[Outcome] = []
    for index, payload in enumerate(fresh):
        outcomes += run_lists(server, [[payload]] * CLIENTS, tracer,
                              f"r{round_index}.f{index}")
    outcomes += run_lists(server, [repeats[i::CLIENTS]
                                   for i in range(CLIENTS)],
                          tracer, f"r{round_index}.rep")
    return outcomes


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    # One thread is busy at a time, so one CPU does the same work; on
    # one CPU a handoff between the client, server and simulation
    # threads never waits for another, idle virtual CPU to be woken.
    # Called before any thread starts, so every thread inherits it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    stream = JobStream(seed)
    tracer = LayerTracer(SERVE_LAYERS + HARNESS_LAYERS) if trace else None

    def setup():
        cache_dir = work_dir("serve")
        server = Server(cache_dir, WARMUP_HOP)
        return (server, cache_dir), server.stop

    setup_s, setup_all, (server, cache_dir) = timed_setup(
        ("repro.serve.server", "repro.serve.client"), setup)

    servers = [server]
    server_stats: List[Dict] = []
    outcomes: List[Outcome] = []
    #: outcomes of untraced rounds, the ones latencies are taken from
    measured: List[Outcome] = []
    round_walls: List[float] = []
    untraced_s = traced_s = 0.0
    restart_s = None
    start = time.perf_counter()
    deadline = start + seconds
    round_index = 0
    try:
        while not round_walls or time.perf_counter() < deadline:
            if restart_s is None and \
                    time.perf_counter() >= start + seconds / 2:
                restart_start = time.perf_counter()
                server_stats.append(server.stats())
                server.stop()
                server = Server(cache_dir, WARMUP_HOP + 1)
                servers.append(server)
                restart_s = time.perf_counter() - restart_start
            # the traced run alternates untraced and traced rounds
            traced = trace and round_index % 2 == 1
            fresh, repeats = stream.next_round()
            if traced:
                tracer.install()
            round_start = time.perf_counter()
            try:
                done = run_round(server, fresh, repeats,
                                 tracer if traced else None, round_index)
            finally:
                if traced:
                    tracer.uninstall()
            wall = time.perf_counter() - round_start
            outcomes.extend(done)
            if traced:
                traced_s += wall
            else:
                untraced_s += wall
                round_walls.append(wall)
                measured.extend(done)
            round_index += 1
        server_stats.append(server.stats())
    finally:
        server.stop()

    # correctness: every job done, every repeat returns the first ticks,
    # and a seeded sample of points matches an in-process run
    failed = 0
    first_ticks: Dict[str, int] = {}
    for outcome in outcomes:
        if outcome.error is not None:
            failed += 1
            log(f"FAILED job {outcome.key}: {outcome.error}")
            continue
        expected = first_ticks.setdefault(outcome.key, outcome.ticks)
        if outcome.ticks != expected:
            failed += 1
            log(f"MISMATCH job {outcome.key}: {outcome.ticks} != {expected}")
    by_key = {payload_key(payload): payload for payload in stream.points}
    checked = random.Random(seed).sample(
        sorted(first_ticks), min(INPROCESS_CHECKS, len(first_ticks)))
    for key in checked:
        payload = by_key[key]
        local = run_benchmark(payload["code"], payload["input_size"],
                              CoherenceMode(payload["mode"]),
                              build_config(payload["config"]))
        if local.total_ticks != first_ticks[key]:
            bad = sum(1 for outcome in outcomes if outcome.key == key)
            failed += bad
            log(f"MISMATCH {key}: served {first_ticks[key]} vs "
                f"in-process {local.total_ticks}")

    latencies = [outcome.latency_ms for outcome in measured
                 if outcome.error is None]
    round_total = sum(round_walls)
    measured_jobs = len(round_walls) * ROUND_JOBS
    # a gen-2 collection lands in every second or third round and grows
    # with the server's job table, so round times are bimodal and their
    # median jumps between the modes; the mean over the run does not
    end_to_end = {
        "wall_s": ratio(round_total, len(round_walls)),
        "jobs_per_s": ratio(measured_jobs, round_total),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    kinds = {kind: [o.latency_ms for o in measured if o.kind == kind]
             for kind in ("sim", "join", "dedupe", "disk", "failed")}
    # joins wait for a simulation, so they are not hits
    hits = kinds["dedupe"] + kinds["disk"]
    deduped = sum(stats["dedupe"]["inflight_hits"]
                  + stats["dedupe"]["completed_hits"]
                  for stats in server_stats)
    submissions = sum(srv.submitted for srv in servers)
    cache_hits = sum(srv.cache.hits for srv in servers)
    cache_misses = sum(srv.cache.misses for srv in servers)
    per_layer = {
        "serve.hit_p50_ms": median(hits),
        "serve.hit_p90_ms": percentile(hits, 90),
        "serve.sim_p50_ms": median(kinds["sim"]),
        "serve.queue_wait_ms": median(
            [o.queue_wait_ms for o in measured
             if o.queue_wait_ms is not None]),
        "serve.dedup_ratio": ratio(deduped, submissions),
        "serve.simulations": sum(stats["simulations_run"]
                                 for stats in server_stats),
        "harness.cache_hit_ratio": ratio(cache_hits,
                                         cache_hits + cache_misses),
    }
    detail = {
        "rounds": len(round_walls), "round_jobs": ROUND_JOBS,
        "round_walls_s": round_walls,
        "restart_s": restart_s, "setup_s_all": setup_all,
        "jobs_by_kind": {kind: len(values) for kind, values in kinds.items()},
        "job_ms_by_kind": {kind: summary(values)
                           for kind, values in kinds.items() if values},
        "job_ms": summary(latencies),
        "inprocess_checked": checked,
    }
    if trace:
        totals = tracer.layer_totals()

        def span_ms(name: str) -> float:
            return 1000.0 * median([span["end"] - span["start"]
                                    for span in tracer.spans_named(name)])

        per_layer.update({
            "serve.submit_ms": span_ms("serve.submit"),
            "serve.wait_ms": span_ms("serve.wait"),
            "serve.result_ms": span_ms("serve.result"),
            "harness.cache_get_s": totals["harness.cache_get"]["self_s"],
            "harness.cache_put_s": totals["harness.cache_put"]["self_s"],
            "trace.overhead_pct": 100.0 * (ratio(traced_s, untraced_s)
                                           - 1.0),
            "trace.covered_pct": tracer.covered_pct(),
        })
    attempted = len(outcomes)
    return {"attempted": attempted, "failed": failed,
            "end_to_end": end_to_end, "per_layer": per_layer,
            "detail": detail, "tracer": tracer}
