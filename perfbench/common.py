"""Shared plumbing: paths, metric tables, set-up timing, statistics."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: end-to-end metric -> unit; every workload reports every one
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit; a layer a workload does not reach in the
#: benchmark process reads 0 on that workload
PER_LAYER: Dict[str, str] = {
    "workloads.build_s": "s",
    "core.system_build_s": "s",
    "engine.run_self_s": "s",
    "engine.events": "count",
    "engine.us_per_event": "us",
    "gpu.coalesce_s": "s",
    "gpu.coalesce_calls": "count",
    "gpu.l1_accesses": "count",
    "gpu.l1_miss_rate": "ratio",
    "vm.translate_s": "s",
    "vm.translate_calls": "count",
    "vm.gpu_tlb_misses": "count",
    "vm.ds_detections": "count",
    "mem.cache_s": "s",
    "mem.cache_calls": "count",
    "mem.gpu_l2_accesses": "count",
    "mem.gpu_l2_miss_rate": "ratio",
    "mem.gpu_l2_first_touch_hits": "count",
    "mem.gpu_l2_compulsory_misses": "count",
    "mem.mshr_s": "s",
    "mem.dram_s": "s",
    "mem.dram_accesses": "count",
    "mem.dram_row_hit_rate": "ratio",
    "coherence.port_s": "s",
    "coherence.port_calls": "count",
    "coherence.hammer_s": "s",
    "coherence.gets": "count",
    "coherence.getx": "count",
    "coherence.probes_sent": "count",
    "coherence.remote_stores": "count",
    "interconnect.send_s": "s",
    "interconnect.xbar_messages": "count",
    "interconnect.xbar_bytes": "bytes",
    "interconnect.ds_forwarded_stores": "count",
    "cpu.mem_s": "s",
    "cpu.ops": "count",
    "harness.cache_get_s": "s",
    "harness.cache_put_s": "s",
    "harness.cache_hit_ratio": "ratio",
    "harness.run_points_s": "s",
    "serve.submit_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.result_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.hit_p50_ms": "ms",
    "serve.hit_p90_ms": "ms",
    "serve.sim_p50_ms": "ms",
    "serve.dedup_ratio": "ratio",
    "serve.simulations": "count",
    "model.calibration_s": "s",
    "model.validation_s": "s",
    "model.score_s": "s",
    "model.probe_runs": "count",
    "model.err_pct": "%",
    "trace.overhead_pct": "%",
    "trace.covered_pct": "%",
}

#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPEATS = 3


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: int) -> float:
    """The *q*-th percentile (inclusive interpolation); 0 when empty."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median and p90 with their sample count, for the detail file."""
    return {"p50": median(values), "p90": percentile(values, 90),
            "samples": len(values)}


def peak_rss_mb() -> float:
    """Max resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def work_dir(label: str) -> Path:
    """A fresh scratch directory inside the checkout."""
    path = OUT / "work" / f"{label}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def remove_work_dirs() -> None:
    shutil.rmtree(OUT / "work", ignore_errors=True)


def time_import(modules: Sequence[str]) -> float:
    """Seconds for a fresh interpreter to import *modules*."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import " + ", ".join(modules)],
                   env=env, check=True, cwd=ROOT)
    return time.perf_counter() - start


def timed_setup(modules: Sequence[str],
                setup: Callable[[], Tuple[object, Callable[[], None]]]
                ) -> Tuple[float, List[float], object]:
    """Run the workload's set-up ``SETUP_REPEATS`` times.

    One set-up is a fresh interpreter importing *modules* plus the
    in-process *setup* (server start, cache directory, warm-up run),
    which returns ``(state, teardown)``.  Every repetition but the last
    is torn down again.  Returns (median seconds, all seconds, state).
    """
    seconds = []
    state = None
    for repeat in range(SETUP_REPEATS):
        import_s = time_import(modules)
        start = time.perf_counter()
        state, teardown = setup()
        seconds.append(import_s + time.perf_counter() - start)
        if repeat < SETUP_REPEATS - 1:
            teardown()
    return median(seconds), seconds, state


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
