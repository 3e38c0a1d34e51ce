"""``explore-cold``: cold design-space explorer runs into fresh caches.

Each operation is one ``repro.model.explore`` of VA (small, 256
candidates, top 4 validated) on 2 pool workers into an empty result
cache: 30 one-at-a-time probe simulations, analytic scoring, and the
validation simulations.  A job is one simulated point; its latency runs
from the ``explore`` call to the progress callback for that point.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from common import (log, median, peak_rss_mb, ratio, summary, timed_setup,
                    work_dir)
from layertrace import HARNESS_LAYERS, MODEL_LAYERS, LayerTracer

from repro.core.protocol_mode import CoherenceMode
from repro.harness.resultcache import ResultCache
from repro.harness.runner import run_benchmark
from repro.model import explore

CODE = "VA"
POINTS = 256
TOP_K = 4
JOBS = 2


def report_outcome(report) -> Dict:
    """The deterministic part of a report, compared across runs."""
    return {
        "probe_runs": report.probe_runs,
        "scored_points": report.scored_points,
        "frontier": [point.candidate.label() for point in report.frontier],
        "validated": [(item.point.candidate.label(), item.actual_ticks)
                      for item in report.validated],
        "median_abs_rel_error": report.median_abs_rel_error,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    tracer = LayerTracer(HARNESS_LAYERS + MODEL_LAYERS) if trace else None

    def setup():
        # warm-up: one short in-process point
        run_benchmark("LV", "small", CoherenceMode.CCSM)
        return None, lambda: None

    setup_s, setup_all, _ = timed_setup(("repro.model",), setup)

    walls: List[float] = []
    job_ms: List[float] = []
    sims_per_s: List[float] = []
    reports = []
    attempted = failed = 0
    untraced_s = traced_s = 0.0
    first: Optional[Dict] = None

    def attempt(traced: bool) -> None:
        nonlocal attempted, failed, untraced_s, traced_s, first
        attempted += 1
        completions: List[float] = []
        cache = ResultCache(work_dir("explore"))
        start = time.perf_counter()

        def call():
            return explore(CODE, "small", points=POINTS, seed=seed,
                           top_k=TOP_K, jobs=JOBS, cache=cache,
                           progress=lambda _label: completions.append(
                               time.perf_counter()))

        try:
            if traced:
                tracer.install()
                try:
                    with tracer.op("explore", f"explore{attempted}"):
                        report = call()
                finally:
                    tracer.uninstall()
            else:
                report = call()
        except Exception as exc:  # an explorer error is a failed op
            failed += 1
            log(f"FAILED explore: {exc!r}")
            return
        wall = time.perf_counter() - start
        outcome = report_outcome(report)
        if first is None:
            first = outcome
        elif outcome != first:
            failed += 1
            log("MISMATCH explore: report differs from the run's first")
        if traced:
            traced_s += wall
        else:
            untraced_s += wall
            walls.append(wall)
            job_ms.extend(1000.0 * (done - start) for done in completions)
            sims_per_s.append(ratio(len(completions), wall))
        reports.append((report, cache))

    if trace:
        attempt(traced=False)
        attempt(traced=True)
    else:
        # one explore at least, then more while the next is expected to
        # finish before the deadline
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() + median(walls) <= deadline:
            attempt(traced=False)
            if failed and not walls:
                break

    end_to_end = {
        "wall_s": median(walls),
        "jobs_per_s": median(sims_per_s),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    per_layer: Dict[str, float] = {}
    if reports:
        report = reports[0][0]
        error = report.median_abs_rel_error
        hits = sum(cache.hits for _report, cache in reports)
        misses = sum(cache.misses for _report, cache in reports)
        per_layer = {
            "model.calibration_s": median(
                [item.calibration_s for item, _cache in reports]),
            "model.validation_s": median(
                [item.validation_s for item, _cache in reports]),
            "model.probe_runs": report.probe_runs,
            "model.err_pct": 100.0 * error if error is not None else 0.0,
            "harness.cache_hit_ratio": ratio(hits, hits + misses),
        }
    detail = {
        "code": CODE, "points": POINTS, "top_k": TOP_K, "jobs": JOBS,
        "explores": len(walls), "walls_s": walls,
        "setup_s_all": setup_all,
        "job_ms": summary(job_ms),
        "outcome": first,
    }
    if trace:
        totals = tracer.layer_totals()
        per_layer.update({
            "model.score_s": totals["model.score"]["self_s"],
            "harness.cache_get_s": totals["harness.cache_get"]["self_s"],
            "harness.cache_put_s": totals["harness.cache_put"]["self_s"],
            "harness.run_points_s": totals["harness.run_points"]["self_s"],
            "trace.overhead_pct": 100.0 * (ratio(traced_s, untraced_s)
                                           - 1.0),
            "trace.covered_pct": tracer.covered_pct(),
        })
    return {"attempted": attempted, "failed": failed,
            "end_to_end": end_to_end, "per_layer": per_layer,
            "detail": detail, "tracer": tracer}
