#!/usr/bin/env python
"""Benchmark the benchmark harness: serial vs parallel vs cached.

Times a full figure-regeneration workload (every requested Table II
benchmark under CCSM and direct store) three ways:

1. **serial** — one process, no cache (the pre-parallel baseline path);
2. **parallel cold** — fan-out across worker processes into an empty
   result cache;
3. **cached warm** — the same batch again, now fully served from disk;

verifies the three produce tick-for-tick identical results, and writes
a perf-trajectory record to ``BENCH_harness.json``.

Usage::

    PYTHONPATH=src python tools/bench_harness.py [options]

    --codes VA NN ...      subset of benchmarks (default: all 22)
    --input-size small|big
    --jobs N               worker processes for the parallel phases
    --cache-dir PATH       cache location (default: a fresh temp dir)
    --output PATH          where to write the record (default:
                           BENCH_harness.json next to the repo root)
    --skip-serial          reuse no baseline; only parallel + cached
    --serial-passes N      serial passes per point; each point keeps
                           its fastest pass (default 2 — the timeit
                           estimator, robust to shared-host noise)
    --service-code CODE    benchmark submitted through the job server
                           for the service section (default: VA)
    --skip-service         omit the service section
    --profile-codes ...    codes run once per mode under the sampling
                           profiler; per-layer sample shares land in
                           the record's ``profile`` section
                           (default: KM FW)
    --skip-profile         omit the profile section
    --explore-code CODE    benchmark run through the design-space
                           explorer for the explore section (default: VA)
    --explore-points N     candidates scored analytically (default 256)
    --skip-explore         omit the explore section

The serial phase also records per-benchmark end-to-end seconds
(``per_benchmark_s``) so a regression is attributable to a specific
workload, and the previous record's serial time (when an output file
already exists) is carried into ``previous_serial_uncached_s`` with the
run-over-run speedup.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy

from repro.core.protocol_mode import CoherenceMode
from repro.harness.parallel import ParallelRunner, RunPoint, resolve_jobs
from repro.harness.resultcache import ResultCache
from repro.harness.runner import run_benchmark
from repro.telemetry.manifest import run_manifest
from repro.workloads.suite import benchmark_codes

REPO_ROOT = Path(__file__).resolve().parent.parent


def bench_profile(codes, input_size):
    """Per-layer host CPU shares for one sampled run per code.

    Runs each benchmark once under CCSM and once under direct store
    inside the sampling profiler and records every layer's sample count
    and share of samples — the attribution data the next optimization
    round starts from.  A sampled run executes the same code as an
    unsampled one, so ``cpu_s`` is the CPU time of an ordinary run.
    """
    from repro.utils.profiler import SamplingProfiler

    section = {"input_size": input_size, "benchmarks": {}}
    for code in codes:
        entry = {}
        for mode in (CoherenceMode.CCSM, CoherenceMode.DIRECT_STORE):
            with SamplingProfiler() as profiler:
                run_benchmark(code, input_size, mode)
            entry[mode.value] = {
                "cpu_s": round(profiler.cpu_seconds, 3),
                "samples": dict(profiler.samples),
                "share_pct": {layer: round(share, 1) for layer, share
                              in profiler.shares().items()},
            }
        section["benchmarks"][code] = entry
        top = next(iter(entry["ccsm"]["share_pct"]), "-")
        print(f"{'profile':14s} {code}: ccsm "
              f"{entry['ccsm']['cpu_s']}s, direct_store "
              f"{entry['direct_store']['cpu_s']}s "
              f"(top layer: {top})", file=sys.stderr)
    return section


def bench_service(code, input_size):
    """Cold vs warm submit→result latency through the full service stack.

    Spins up a real :class:`ServerThread` on an ephemeral port with a
    fresh cache, then measures three submit→result round trips with the
    blocking client: **cold** (the simulation actually runs), **warm**
    (same server, the completed job is deduped — no simulation), and
    **restart-warm** (a new server process-state over the same cache
    dir, served from disk).  All three must return identical ticks.
    """
    import tempfile
    from repro.serve.client import ServeClient
    from repro.serve.server import ServerThread

    cache_dir = Path(tempfile.mkdtemp(prefix="repro_bench_service_"))
    section = {"code": code, "input_size": input_size}
    ticks = {}

    def round_trip(client, label):
        start = time.perf_counter()
        result = client.submit_and_wait(code, input_size, "ccsm")
        section[f"{label}_submit_to_result_s"] = round(
            time.perf_counter() - start, 3)
        ticks[label] = result.total_ticks

    with ServerThread(cache=ResultCache(cache_dir), jobs=2) as server:
        client = ServeClient(port=server.port)
        round_trip(client, "cold")
        round_trip(client, "warm")
        stats = client.stats()
        section["simulations_run"] = stats["simulations_run"]
        section["completed_dedup_hits"] = (
            stats["dedupe"]["completed_hits"])
    with ServerThread(cache=ResultCache(cache_dir), jobs=2) as server:
        round_trip(ServeClient(port=server.port), "restart_warm")

    section["speedup_warm_vs_cold"] = round(
        section["cold_submit_to_result_s"]
        / max(section["warm_submit_to_result_s"], 1e-6), 2)
    section["total_ticks"] = ticks["cold"]
    section["ticks_identical"] = len(set(ticks.values())) == 1
    print(f"{'service':14s} cold "
          f"{section['cold_submit_to_result_s']}s, warm "
          f"{section['warm_submit_to_result_s']}s, restart-warm "
          f"{section['restart_warm_submit_to_result_s']}s "
          f"({section['simulations_run']} simulation(s), ticks "
          f"{'equal' if section['ticks_identical'] else 'DIFFER'})",
          file=sys.stderr)
    return section


def bench_explore(code, input_size, points):
    """Cold vs warm closed-loop explorer run (docs/EXPLORER.md).

    Runs the full calibrate→score→rank→validate→refit loop twice over
    one fresh cache: **cold** (probes and validations simulate) and
    **warm** (every run is a disk hit, isolating the analytic scoring
    cost).  Records the modeled-points-per-second rate, the calibration
    and validation wall times, and the model's median relative tick
    error on the validated frontier points — the explorer's accuracy
    contract (≤ 15%) made measurable run over run.
    """
    import tempfile
    from repro.model import explore

    cache_dir = Path(tempfile.mkdtemp(prefix="repro_bench_explore_"))
    section = {"code": code, "input_size": input_size,
               "requested_points": points}
    for label in ("cold", "warm"):
        report = explore(code, input_size, points=points, top_k=4,
                         cache=ResultCache(cache_dir))
        section[f"{label}_calibration_s"] = round(
            report.calibration_s, 3)
        section[f"{label}_validation_s"] = round(report.validation_s, 3)
        section[f"{label}_model_s"] = round(
            report.score_timing.seconds, 4)
        if label == "cold":
            section.update(
                space_size=report.space_size,
                scored_points=report.scored_points,
                probe_runs=report.probe_runs,
                frontier_points=len(report.frontier),
                validated_points=len(report.validated),
                modeled_points_per_s=round(
                    report.score_timing.points_per_second, 1),
                median_rel_error=report.median_abs_rel_error,
                median_rel_error_after_refit=(
                    report.median_abs_rel_error_after_refit))
    section["speedup_warm_vs_cold_calibration"] = round(
        section["cold_calibration_s"]
        / max(section["warm_calibration_s"], 1e-6), 2)
    error = section["median_rel_error"]
    error_text = f"{error:.1%}" if error is not None else "-"
    print(f"{'explore':14s} {section['scored_points']} points scored "
          f"({section['modeled_points_per_s']:,.0f}/s), "
          f"{section['probe_runs']} probes "
          f"{section['cold_calibration_s']}s cold / "
          f"{section['warm_calibration_s']}s warm, "
          f"{section['validated_points']} validated in "
          f"{section['cold_validation_s']}s, median error "
          f"{error_text}", file=sys.stderr)
    return section


def run_serial_phase(points, passes=2):
    """Serial baseline with per-point timing (one process, no cache).

    Each point runs *passes* times and keeps its fastest wall time (the
    ``timeit`` estimator: the minimum is the least noise-contaminated
    observation of a deterministic workload's cost).  On a shared host
    a single 30 s pass is routinely hit by multi-second interference
    bursts; per-point minima filter a burst out unless it covers the
    same point in every pass.  The reported phase time is the sum of
    the per-point minima; per-pass totals are returned alongside so the
    record keeps the raw draws.
    """
    results = []
    per_point = {}
    pass_totals = []
    for pass_index in range(max(1, passes)):
        pass_start = time.perf_counter()
        pass_results = []
        for point in points:
            point_start = time.perf_counter()
            pass_results.append(run_benchmark(point.code, point.input_size,
                                              point.mode))
            point_s = time.perf_counter() - point_start
            key = f"{point.code}/{point.mode.value}"
            if pass_index == 0 or point_s < per_point[key]:
                per_point[key] = point_s
        pass_totals.append(round(time.perf_counter() - pass_start, 3))
        results = pass_results
    per_point = {key: round(value, 3) for key, value in per_point.items()}
    elapsed = sum(per_point.values())
    print(f"{'serial':14s} {elapsed:8.2f}s "
          f"({len(points)} runs, jobs=1, cache_hits=0, best of "
          f"{max(1, passes)} passes: {pass_totals})", file=sys.stderr)
    return elapsed, results, per_point, pass_totals


def build_points(codes, input_size):
    points = []
    for code in codes:
        points.append(RunPoint(code, input_size, CoherenceMode.CCSM))
        points.append(RunPoint(code, input_size,
                               CoherenceMode.DIRECT_STORE))
    return points


def run_phase(label, runner, points):
    start = time.perf_counter()
    results = runner.run_points(points)
    elapsed = time.perf_counter() - start
    print(f"{label:14s} {elapsed:8.2f}s "
          f"({len(points)} runs, jobs={runner.jobs}, "
          f"cache_hits={runner.cache.hits if runner.cache else 0})",
          file=sys.stderr)
    return elapsed, results


def ticks_of(results):
    return [result.total_ticks for result in results]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--codes", nargs="*", default=None)
    parser.add_argument("--input-size", choices=("small", "big"),
                        default="small")
    parser.add_argument("--jobs", "-j", type=int, default=None)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--output", default=str(REPO_ROOT /
                                                "BENCH_harness.json"))
    parser.add_argument("--skip-serial", action="store_true")
    parser.add_argument("--serial-passes", type=int, default=2,
                        help="serial passes per point; the per-point "
                             "minimum is recorded (noise-robust)")
    parser.add_argument("--service-code", default="VA")
    parser.add_argument("--skip-service", action="store_true")
    parser.add_argument("--profile-codes", nargs="*", default=["KM", "FW"])
    parser.add_argument("--skip-profile", action="store_true")
    parser.add_argument("--explore-code", default="VA")
    parser.add_argument("--explore-points", type=int, default=256)
    parser.add_argument("--skip-explore", action="store_true")
    args = parser.parse_args(argv)

    codes = args.codes or benchmark_codes()
    points = build_points(codes, args.input_size)
    if args.cache_dir is not None:
        cache_dir = Path(args.cache_dir)
    else:
        import tempfile
        cache_dir = Path(tempfile.mkdtemp(prefix="repro_bench_cache_"))
    cache = ResultCache(cache_dir)
    cache.clear()  # the "cold" phase must be genuinely cold

    record = {
        "tool": "bench_harness",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "input_size": args.input_size,
        "codes": list(codes),
        "runs": len(points),
        "jobs": resolve_jobs(args.jobs),
        "cpu_count": os.cpu_count(),
        "numpy_version": numpy.__version__,
        "manifest": run_manifest(),
        "phases": {},
    }

    previous_serial = None
    output_path = Path(args.output)
    if output_path.exists():
        try:
            previous_serial = json.loads(output_path.read_text())[
                "phases"].get("serial_uncached_s")
        except (ValueError, KeyError):
            previous_serial = None

    serial_results = None
    if not args.skip_serial:
        serial_s, serial_results, per_point_s, pass_totals = \
            run_serial_phase(points, passes=args.serial_passes)
        record["phases"]["serial_uncached_s"] = round(serial_s, 3)
        record["per_benchmark_s"] = per_point_s
        record["serial_pass_totals_s"] = pass_totals
        if previous_serial:
            record["previous_serial_uncached_s"] = previous_serial
            record["speedup_vs_previous_record"] = round(
                previous_serial / serial_s, 2)

    parallel_runner = ParallelRunner(jobs=args.jobs, cache=cache)
    # On a 1-core host (or jobs=1) the runner executes in-process; a
    # "parallel" phase there would just time pool overhead, so the cold
    # cache-fill pass is recorded as what it is instead.
    in_process = parallel_runner.jobs == 1
    record["parallel_in_process"] = in_process
    phase_label = "cold fill" if in_process else "parallel cold"
    parallel_s, parallel_results = run_phase(phase_label,
                                             parallel_runner, points)
    phase_key = "cold_fill_s" if in_process else "parallel_cold_s"
    record["phases"][phase_key] = round(parallel_s, 3)

    warm_runner = ParallelRunner(jobs=args.jobs, cache=ResultCache(cache_dir))
    cached_s, cached_results = run_phase("cached warm", warm_runner,
                                         points)
    record["phases"]["cached_warm_s"] = round(cached_s, 3)

    identical = ticks_of(parallel_results) == ticks_of(cached_results)
    if serial_results is not None:
        identical = identical and (ticks_of(serial_results)
                                   == ticks_of(parallel_results))
        if not in_process:
            record["speedup_parallel_vs_serial"] = round(
                record["phases"]["serial_uncached_s"] / parallel_s, 2)
        record["speedup_cached_vs_serial"] = round(
            record["phases"]["serial_uncached_s"] / cached_s, 2)
    record["speedup_cached_vs_parallel"] = round(parallel_s / cached_s, 2)
    record["results_identical"] = identical
    record["total_ticks"] = {
        f"{point.code}/{point.mode.value}": result.total_ticks
        for point, result in zip(points, parallel_results)}

    if not args.skip_service:
        record["service"] = bench_service(args.service_code,
                                          args.input_size)
        identical = identical and record["service"]["ticks_identical"]

    if not args.skip_profile:
        record["profile"] = bench_profile(args.profile_codes,
                                          args.input_size)

    if not args.skip_explore:
        record["explore"] = bench_explore(args.explore_code,
                                          args.input_size,
                                          args.explore_points)

    # the service-metrics snapshot of everything this process just did
    # (cache traffic, runner batches, scheduler jobs from the service
    # section) — tools/bench_watch.py reads it alongside the timings
    from repro.metrics import REGISTRY
    record["metrics"] = REGISTRY.snapshot()

    output_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)
    if not identical:
        print("ERROR: parallel/cached results differ from baseline",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
