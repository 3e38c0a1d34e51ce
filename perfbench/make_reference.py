"""Record the suite reference statistics and print the paper aggregates.

Runs all 44 Table II small points (22 codes under CCSM and under direct
store) at the default build-context seed, writes their simulated
statistics to ``reference.json`` beside this file, and cross-checks
every ``total_ticks`` against ``BENCH_harness.json`` at the repository
root.  Then prints the simulated values that sit beside the paper's
published aggregates (Fig. 4 geomean of non-zero speedups; Fig. 5
geomean GPU L2 miss rate)::

    python3 perfbench/make_reference.py          # record and check
    python3 perfbench/make_reference.py --check  # check only
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from common import ROOT  # noqa: E402
from suite import (BASE_CTX_SEED, REFERENCE_PATH, point_key,  # noqa: E402
                   run_point, signature)

from repro.core.protocol_mode import CoherenceMode  # noqa: E402
from repro.workloads.suite import benchmark_codes  # noqa: E402

MODES = (CoherenceMode.CCSM, CoherenceMode.DIRECT_STORE)
#: speedups within this of 1.0 count as zero (Fig. 4's filter)
ZERO_THRESHOLD = 0.005


def geomean(values):
    return math.exp(sum(math.log(value) for value in values) / len(values))


def aggregates(points):
    """Fig. 4 and Fig. 5 aggregates over the recorded small points."""
    speedups, ccsm_miss, ds_miss = [], [], []
    for code in benchmark_codes():
        ccsm = points[f"{code}/ccsm"]
        ds = points[f"{code}/direct_store"]
        speedup = ccsm["total_ticks"] / ds["total_ticks"]
        if speedup - 1.0 > ZERO_THRESHOLD:
            speedups.append(speedup)
        for run, rates in ((ccsm, ccsm_miss), (ds, ds_miss)):
            l2 = run["gpu_l2"]
            if l2["misses"]:
                rates.append(l2["misses"] / l2["accesses"])
    return {
        "fig4_geomean_nonzero_speedup_pct": (geomean(speedups) - 1) * 100,
        "fig4_nonzero_points": len(speedups),
        "fig5_geomean_l2_miss_rate_ccsm_pct": geomean(ccsm_miss) * 100,
        "fig5_geomean_l2_miss_rate_ds_pct": geomean(ds_miss) * 100,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the recorded file instead "
                             "of rewriting it")
    args = parser.parse_args(argv)

    if args.check:
        points = json.loads(REFERENCE_PATH.read_text())["points"]
    else:
        points = {}
        for code in benchmark_codes():
            for mode in MODES:
                points[point_key(code, mode)] = signature(
                    run_point(code, mode, BASE_CTX_SEED))
                print(f"{point_key(code, mode):16s} "
                      f"{points[point_key(code, mode)]['total_ticks']:>12,}",
                      file=sys.stderr)
        REFERENCE_PATH.write_text(json.dumps(
            {"ctx_seed": BASE_CTX_SEED, "input_size": "small",
             "points": points}, indent=1, sort_keys=True) + "\n")

    harness = json.loads((ROOT / "BENCH_harness.json").read_text())
    recorded = harness["total_ticks"]
    differ = [key for key, value in recorded.items()
              if points[key]["total_ticks"] != value]
    print(f"BENCH_harness.json total_ticks: "
          f"{len(recorded) - len(differ)}/{len(recorded)} points match")
    for key in differ:
        print(f"  {key}: harness {recorded[key]:,} vs reference "
              f"{points[key]['total_ticks']:,}")
    summary = aggregates(points)
    print(f"Fig. 4 geomean of non-zero speedups (small): "
          f"{summary['fig4_geomean_nonzero_speedup_pct']:.1f}% simulated "
          f"over {summary['fig4_nonzero_points']} points; paper 7.8%")
    print(f"Fig. 5 geomean GPU L2 miss rate (small): CCSM "
          f"{summary['fig5_geomean_l2_miss_rate_ccsm_pct']:.1f}% -> direct "
          f"store {summary['fig5_geomean_l2_miss_rate_ds_pct']:.1f}% "
          f"simulated; paper 9.3% -> 7.3%")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
