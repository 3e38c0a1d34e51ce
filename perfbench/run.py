"""Repository benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload suite-pull --seed 0 --seconds 20 --trace 0

Workloads (see NOTES.md for why each exists):

* ``suite-pull``   22 Table II small points under CCSM, serially;
* ``suite-push``   the same points under direct store;
* ``service-mix``  2 closed-loop clients against a live in-process job
                   server;
* ``explore-cold`` cold design-space explorer runs on 2 pool workers.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` installs
span wrappers on the layer classes for the traced units of work and
reports the per-layer metrics instead.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; details
(per-point seconds, sample counts, spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import END_TO_END, OUT, PER_LAYER, SRC, log, remove_work_dirs

WORKLOADS = ("suite-pull", "suite-push", "service-mix", "explore-cold")


def load_workload(name: str):
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC}; run from a "
                         f"full checkout of the repository")
    sys.path.insert(0, str(SRC))
    if name.startswith("suite-"):
        import suite as module
    elif name == "service-mix":
        import service as module
    else:
        import cold_explore as module
    return module


def result_line(outcome: dict, trace: bool) -> dict:
    """The printed result object for one workload outcome.

    Untraced runs report every end-to-end metric; traced runs every
    per-layer metric, 0 for a layer the workload does not reach in the
    benchmark process.
    """
    values, table = ((outcome["per_layer"], PER_LAYER) if trace
                     else (outcome["end_to_end"], END_TO_END))
    return {"correct": outcome["failed"] == 0,
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": {name: {"value": float(values.get(name, 0.0)),
                               "unit": unit}
                        for name, unit in table.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    module = load_workload(args.workload)
    started = time.time()
    try:
        outcome = module.run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    finally:
        remove_work_dirs()
    result = result_line(outcome, bool(args.trace))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "started": started, "result": result,
              "detail": outcome["detail"]}
    if outcome["tracer"] is not None:
        record["trace_spans"] = outcome["tracer"].export()
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    log(f"details written to {path.relative_to(OUT.parent.parent)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
