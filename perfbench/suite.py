"""``suite-pull`` / ``suite-push``: the 22 Table II small points, serially.

Each point runs in-process through :class:`IntegratedSystem` with no
result cache, exactly as ``run_benchmark`` does, but with the workload
wrapped so the benchmark seed reaches ``BuildContext.seed``.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import random
import time
from typing import Dict, List, Optional

from common import (BENCH_DIR, log, median, peak_rss_mb, ratio, summary,
                    timed_setup)
from layertrace import SIM_LAYERS, LayerTracer

from repro.core.config import SystemConfig
from repro.core.metrics import RunResult
from repro.core.protocol_mode import CoherenceMode
from repro.core.system import IntegratedSystem
from repro.workloads.base import BuildContext, Workload
from repro.workloads.suite import benchmark_codes, get_workload

REFERENCE_PATH = BENCH_DIR / "reference.json"

#: the build-context seed every recorded statistic was taken at; the
#: benchmark seed is added to it, so ``--seed 0`` reproduces it
BASE_CTX_SEED = BuildContext.seed

#: codes whose inputs (graphs, BFS frontiers) are drawn from ctx.seed
SEED_DEPENDENT = frozenset({"BF", "GC", "FW", "MS", "SP"})

MODES = {"suite-pull": CoherenceMode.CCSM,
         "suite-push": CoherenceMode.DIRECT_STORE}

#: RunResult fields kept in the reference, beside ``stats`` entries
#: under these prefixes
COUNTER_FIELDS = ("total_ticks", "gpu_l2", "gpu_l1", "cpu_l1d", "cpu_l2",
                  "network_messages", "network_bytes", "ds_messages",
                  "ds_forwarded_stores", "dram_reads", "dram_writes",
                  "cpu_loads", "cpu_stores", "events_fired")
STAT_PREFIXES = ("hammer.", "dram.", "gpu.tlb.", "cpu.tlb.", "cpu.core.",
                 "xbar.", "dsnet.")


class SeededWorkload(Workload):
    """A Table II workload whose build context carries a chosen seed."""

    def __init__(self, code: str, ctx_seed: int,
                 input_size: str = "small") -> None:
        super().__init__(input_size)
        self.inner = get_workload(code, input_size)
        self.ctx_seed = ctx_seed
        self.code = self.inner.code

    def build(self, ctx: BuildContext) -> List[object]:
        return self.inner.build(dataclasses.replace(ctx, seed=self.ctx_seed))


def run_point(code: str, mode: CoherenceMode, ctx_seed: int) -> RunResult:
    system = IntegratedSystem(SystemConfig(track_values=False), mode)
    return system.run(SeededWorkload(code, ctx_seed))


def signature(result: RunResult) -> Dict:
    """The simulated statistics a point is checked on (JSON-exact)."""
    document = result.to_dict()
    signature = {field: document[field] for field in COUNTER_FIELDS}
    signature["stats"] = {key: value
                          for key, value in sorted(result.stats.items())
                          if key.startswith(STAT_PREFIXES)}
    return json.loads(json.dumps(signature))


def load_reference() -> Dict:
    return json.loads(REFERENCE_PATH.read_text())


def point_key(code: str, mode: CoherenceMode) -> str:
    return f"{code}/{mode.value}"


class PointChecker:
    """Compares each run's statistics with the reference or its first run.

    The reference holds every point at ``BASE_CTX_SEED``; seed-dependent
    points at any other seed fall back to run-to-run repetition.
    """

    def __init__(self, reference: Dict, ctx_seed: int) -> None:
        self.reference = reference
        self.ctx_seed = ctx_seed
        self.first: Dict[str, Dict] = {}
        self.mismatches: List[str] = []

    def has_reference(self, code: str) -> bool:
        return (code not in SEED_DEPENDENT
                or self.ctx_seed == self.reference["ctx_seed"])

    def check(self, code: str, mode: CoherenceMode,
              result: RunResult) -> bool:
        key = point_key(code, mode)
        observed = signature(result)
        expected = (self.reference["points"].get(key)
                    if self.has_reference(code) else self.first.get(key))
        self.first.setdefault(key, observed)
        if expected is not None and observed != expected:
            self.mismatches.append(key)
            log(f"MISMATCH {key}: statistics differ from "
                f"{'reference' if self.has_reference(code) else 'first run'}")
            return False
        return True


def simulated_counts(results: Dict[str, RunResult]) -> Dict[str, float]:
    """Per-layer simulated counts summed over one result per point."""
    runs = list(results.values())

    def total(attribute_path: str) -> float:
        value = 0
        for run in runs:
            item = run
            for part in attribute_path.split("."):
                item = getattr(item, part)
            value += item
        return value

    def stat(name: str) -> float:
        return sum(run.stats.get(name, 0) for run in runs)

    row_total = stat("dram.row_hits") + stat("dram.row_misses") + \
        stat("dram.row_empty")
    return {
        "engine.events": total("events_fired"),
        "gpu.l1_accesses": total("gpu_l1.accesses"),
        "gpu.l1_miss_rate": ratio(total("gpu_l1.misses"),
                                  total("gpu_l1.accesses")),
        "vm.gpu_tlb_misses": stat("gpu.tlb.misses"),
        "vm.ds_detections": stat("cpu.tlb.direct_store_detections"),
        "mem.gpu_l2_accesses": total("gpu_l2.accesses"),
        "mem.gpu_l2_miss_rate": ratio(total("gpu_l2.misses"),
                                      total("gpu_l2.accesses")),
        "mem.gpu_l2_first_touch_hits": total("gpu_l2.first_touch_hits"),
        "mem.gpu_l2_compulsory_misses": total("gpu_l2.compulsory_misses"),
        "mem.dram_accesses": total("dram_reads") + total("dram_writes"),
        "mem.dram_row_hit_rate": ratio(stat("dram.row_hits"), row_total),
        "coherence.gets": stat("hammer.gets_requests"),
        "coherence.getx": stat("hammer.getx_requests"),
        "coherence.probes_sent": stat("hammer.probes_sent"),
        "coherence.remote_stores": stat("hammer.remote_stores"),
        "interconnect.xbar_messages": total("network_messages"),
        "interconnect.xbar_bytes": total("network_bytes"),
        "interconnect.ds_forwarded_stores": total("ds_forwarded_stores"),
        "cpu.ops": stat("cpu.core.ops_executed"),
    }


def layer_times(tracer: LayerTracer, events: float) -> Dict[str, float]:
    totals = tracer.layer_totals()
    self_s = {name: entry["self_s"] for name, entry in totals.items()}
    calls = {name: entry["calls"] for name, entry in totals.items()}
    engine_total = totals["engine.run"]["total_s"]
    return {
        "workloads.build_s": self_s["workloads.build"],
        "core.system_build_s": self_s["core.system_build"],
        "engine.run_self_s": self_s["engine.run"],
        "engine.us_per_event": 1e6 * ratio(engine_total, events),
        "gpu.coalesce_s": self_s["gpu.coalesce"],
        "gpu.coalesce_calls": calls["gpu.coalesce"],
        "vm.translate_s": self_s["vm.translate"],
        "vm.translate_calls": calls["vm.translate"],
        "mem.cache_s": self_s["mem.cache"],
        "mem.cache_calls": calls["mem.cache"],
        "mem.mshr_s": self_s["mem.mshr"],
        "mem.dram_s": self_s["mem.dram"],
        "coherence.port_s": self_s["coherence.port"],
        "coherence.port_calls": calls["coherence.port"],
        "coherence.hammer_s": self_s["coherence.hammer"],
        "interconnect.send_s": self_s["interconnect.send"],
        "cpu.mem_s": self_s["cpu.mem"],
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        codes: Optional[List[str]] = None,
        reference: Optional[Dict] = None) -> Dict:
    mode = MODES[workload]
    ctx_seed = BASE_CTX_SEED + seed
    order = list(codes or benchmark_codes())
    random.Random(seed).shuffle(order)
    checker = PointChecker(reference or load_reference(), ctx_seed)
    tracer = LayerTracer(SIM_LAYERS) if trace else None

    def setup():
        # warm-up: one short point, so lazy first-use work is not timed
        run_point("LV", mode, ctx_seed)
        return None, lambda: None

    setup_s, setup_all, _ = timed_setup(
        ("repro.core.system", "repro.workloads.suite"), setup)

    samples: Dict[str, List[float]] = {code: [] for code in order}
    results: Dict[str, RunResult] = {}
    attempted = failed = 0

    def attempt(code: str, traced: bool) -> Optional[float]:
        nonlocal attempted, failed
        attempted += 1
        # every point starts from a collected heap, so the garbage the
        # previous point left is neither timed nor order-dependent
        gc.collect()
        start = time.perf_counter()
        try:
            if traced:
                tracer.install()
                try:
                    with tracer.op("point", point_key(code, mode)):
                        result = run_point(code, mode, ctx_seed)
                finally:
                    tracer.uninstall()
            else:
                result = run_point(code, mode, ctx_seed)
        except Exception as exc:  # a failed point is counted, not fatal
            failed += 1
            log(f"FAILED {point_key(code, mode)}: {exc!r}")
            return None
        elapsed = time.perf_counter() - start
        results.setdefault(code, result)
        if not checker.check(code, mode, result):
            failed += 1
        return elapsed

    untraced_s = traced_s = 0.0
    if trace:
        # one pass; each point runs untraced, then traced, so the
        # overhead compares the same work
        for code in order:
            plain = attempt(code, traced=False)
            traced = attempt(code, traced=True)
            if plain is not None and traced is not None:
                samples[code].append(plain)
                untraced_s += plain
                traced_s += traced
    else:
        # a whole first pass, then further points in the same order while
        # each is expected (from its first sample) to end by the deadline
        deadline = time.perf_counter() + seconds
        for code in order:
            elapsed = attempt(code, traced=False)
            if elapsed is not None:
                samples[code].append(elapsed)
        for code in itertools.cycle(order):
            if not samples[code] or \
                    time.perf_counter() + samples[code][0] > deadline:
                break
            elapsed = attempt(code, traced=False)
            if elapsed is not None:
                samples[code].append(elapsed)
        # a point with no reference is checked against a second run
        for code in order:
            if not checker.has_reference(code) and len(samples[code]) < 2:
                elapsed = attempt(code, traced=False)
                if elapsed is not None:
                    samples[code].append(elapsed)

    per_point = {point_key(code, mode): median(values)
                 for code, values in samples.items() if values}
    wall = sum(per_point.values())
    point_ms = [1000.0 * value for value in per_point.values()]
    end_to_end = {
        "wall_s": wall,
        "jobs_per_s": ratio(len(per_point), wall),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    per_layer = simulated_counts(results)
    detail = {
        "mode": mode.value, "ctx_seed": ctx_seed, "order": order,
        "setup_s_all": setup_all,
        "per_point_s": per_point,
        "per_point_samples": {point_key(code, mode): values
                              for code, values in samples.items()},
        "job_ms": summary(point_ms),
        "mismatches": checker.mismatches,
    }
    if trace:
        per_layer.update(layer_times(tracer, per_layer["engine.events"]))
        per_layer["trace.overhead_pct"] = 100.0 * (
            ratio(traced_s, untraced_s) - 1.0)
        per_layer["trace.covered_pct"] = tracer.covered_pct()
        detail["fused_spans"] = (
            "coherence.port includes the MSHR, Hammer, DRAM and crossbar "
            "work the batched kernel fuses on the default path")
    return {"attempted": attempted, "failed": failed,
            "end_to_end": end_to_end, "per_layer": per_layer,
            "detail": detail, "tracer": tracer}
