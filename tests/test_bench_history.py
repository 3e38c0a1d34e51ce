"""The committed performance record stays complete and never regresses.

``BENCH_history.json`` holds one entry per change, oldest first:

* ``end_to_end``: for every workload x end-to-end metric named in
  ``BENCHMARK.json``, the parent and change medians of ``runs``
  alternating ``perfbench/run.py`` pairs, with the parent's quartiles
  as the stated noise;
* ``layers``: for KM and FW small under CCSM and direct store, the
  :class:`~repro.utils.profiler.SamplingProfiler` CPU seconds and
  per-layer shares, each the median of ``profiled_runs`` draws;
* ``parent_layers`` (newer entries): the same profile of the parent,
  drawn in the same session, alternating with the change's draws.

The gates read their bounds from ``BENCHMARK.json``: no change median
may be worse than its parent median by more than the metric's bound,
and no layer holding at least :data:`LAYER_FLOOR_PCT` of the profiled
CPU time may grow in CPU seconds (summed over the profiled points) by
more than the ``wall_s`` bound, so a slower layer cannot hide inside a
flat total.  An entry with ``parent_layers`` is gated against them;
an older entry against the previous entry's ``layers``, which also
moves with host drift between sessions.  The same gates run on small
synthetic histories below.  No test here simulates anything.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HISTORY_PATH = ROOT / "BENCH_history.json"

#: layers below this share of the profiled CPU time are too noisy to gate
LAYER_FLOOR_PCT = 5.0

#: the points every entry profiles
PROFILED_POINTS = ("KM/ccsm", "KM/direct_store", "FW/ccsm",
                   "FW/direct_store")


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
METRICS = {metric["name"]: metric for metric in SPEC["end_to_end"]}


def missing_fields(entry):
    """Workload x metric pairs and profiled points the entry lacks."""
    measured = entry.get("end_to_end", {})
    missing = [f"{workload}/{metric}" for workload in WORKLOADS
               for metric in METRICS
               if not {"parent", "change", "parent_q1", "parent_q3"}
               <= set(measured.get(workload, {}).get(metric, {}))]
    missing += [point for point in PROFILED_POINTS
                if point not in entry.get("layers", {})]
    if "parent_layers" in entry:
        missing += [f"parent_layers/{point}" for point in PROFILED_POINTS
                    if point not in entry["parent_layers"]]
    return missing


def end_to_end_regressions(entry):
    """Change medians worse than their parent median beyond the bound."""
    regressions = []
    for workload, metrics in entry["end_to_end"].items():
        for name, value in metrics.items():
            bound = METRICS[name]["bound"]
            if METRICS[name]["better"] == "lower":
                worse = value["change"] > value["parent"] * (1 + bound)
            else:
                worse = value["change"] < value["parent"] * (1 - bound)
            if worse:
                regressions.append(f"{workload}/{name}")
    return regressions


def layer_seconds(layers):
    """CPU seconds per layer of a ``layers`` map, summed over the
    profiled points, and the summed CPU seconds.

    One point gives a layer at 5% only about 15 samples, so a single
    point's layer seconds move by tens of percent from run to run;
    summed over the four points, medians of 9 draws agree within a few
    percent.
    """
    seconds, total = {}, 0.0
    for profile in layers.values():
        total += profile["cpu_s"]
        for layer, share in profile["share_pct"].items():
            seconds[layer] = seconds.get(layer, 0.0) \
                + profile["cpu_s"] * share / 100.0
    return seconds, total


def layer_regressions(previous, current):
    """Layers of *current* whose CPU seconds grew beyond the ``wall_s``
    bound: against its ``parent_layers`` when it records them, else
    against the *previous* entry's ``layers``."""
    bound = METRICS["wall_s"]["bound"]
    baseline = current.get("parent_layers", previous["layers"])
    (old, old_total), (new, new_total) = (layer_seconds(baseline),
                                          layer_seconds(current["layers"]))
    return [layer for layer, seconds in sorted(new.items())
            if 100.0 * max(seconds / new_total,
                           old.get(layer, 0.0) / old_total)
            >= LAYER_FLOOR_PCT
            and seconds > old.get(layer, 0.0) * (1 + bound)]


# -- the committed history --------------------------------------------


@pytest.fixture(scope="module")
def history():
    return json.loads(HISTORY_PATH.read_text())


def test_history_is_ordered_and_nonempty(history):
    assert history, "BENCH_history.json holds no entry"
    prs = [entry["pr"] for entry in history]
    assert prs == sorted(set(prs))
    for entry in history:
        assert entry["runs"] >= 5, entry["pr"]
        assert entry["profiled_runs"] >= 3, entry["pr"]


def test_every_entry_measures_every_workload_and_metric(history):
    for entry in history:
        assert missing_fields(entry) == [], entry["pr"]


def test_no_entry_regresses_beyond_its_bound(history):
    for entry in history:
        assert end_to_end_regressions(entry) == [], entry["pr"]


def test_no_layer_slows_down_between_entries(history):
    for previous, current in zip(history, history[1:]):
        assert layer_regressions(previous, current) == [], current["pr"]


def test_parent_layers_once_recorded_stay_recorded(history):
    """After the first entry with same-session parent profiles, every
    entry has them, so none falls back to the cross-session gate."""
    recorded = ["parent_layers" in entry for entry in history]
    if True in recorded:
        assert all(recorded[recorded.index(True):])


def test_reference_matches_recorded_ticks():
    """``perfbench/reference.json`` agrees with ``BENCH_harness.json``."""
    completed = subprocess.run(
        [sys.executable, "perfbench/make_reference.py", "--check"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "44/44 points match" in completed.stdout


# -- the gates on synthetic histories ---------------------------------


def _entry(pr=1, scale=None, layers=None, parent_layers=None):
    """Every workload x metric at parent 10.0; *scale* moves one."""
    end_to_end = {workload: {metric: {"parent": 10.0, "change": 10.0,
                                      "parent_q1": 9.5, "parent_q3": 10.5}
                             for metric in METRICS}
                  for workload in WORKLOADS}
    if scale is not None:
        workload, metric, factor = scale
        end_to_end[workload][metric]["change"] = 10.0 * factor
    profile = layers or {"cpu_s": 2.0,
                         "share_pct": {"engine": 40.0, "cache": 20.0,
                                       "dram": 3.0, "warp": 37.0}}
    entry = {"pr": pr, "runs": 5, "end_to_end": end_to_end,
             "layers": {point: profile for point in PROFILED_POINTS}}
    if parent_layers is not None:
        entry["parent_layers"] = {point: parent_layers
                                  for point in PROFILED_POINTS}
    return entry


def test_gate_flags_a_missing_metric():
    entry = _entry()
    del entry["end_to_end"][WORKLOADS[0]]["setup_s"]
    del entry["layers"]["FW/ccsm"]
    assert missing_fields(entry) == [f"{WORKLOADS[0]}/setup_s", "FW/ccsm"]


def test_gate_flags_a_regression_beyond_the_bound():
    slower = _entry(scale=(WORKLOADS[0], "wall_s", 1.3))
    assert end_to_end_regressions(slower) == [f"{WORKLOADS[0]}/wall_s"]
    fewer_jobs = _entry(scale=(WORKLOADS[-1], "jobs_per_s", 0.7))
    assert end_to_end_regressions(fewer_jobs) \
        == [f"{WORKLOADS[-1]}/jobs_per_s"]


def test_gate_absorbs_jitter_and_improvements():
    assert end_to_end_regressions(_entry()) == []
    for metric in METRICS:
        jitter = 1 + METRICS[metric]["bound"] / 2
        if METRICS[metric]["better"] == "higher":
            jitter = 1 / jitter
        assert end_to_end_regressions(
            _entry(scale=(WORKLOADS[1], metric, jitter))) == []
    assert end_to_end_regressions(
        _entry(scale=(WORKLOADS[1], "wall_s", 0.5))) == []
    assert end_to_end_regressions(
        _entry(scale=(WORKLOADS[1], "jobs_per_s", 2.0))) == []


def test_gate_flags_a_slower_layer_inside_a_flat_total():
    before = _entry(pr=1)
    # same CPU seconds in total, but cache takes 20% -> 26% of them
    after = _entry(pr=2, layers={
        "cpu_s": 2.0,
        "share_pct": {"engine": 34.0, "cache": 26.0, "dram": 3.0,
                      "warp": 37.0}})
    assert end_to_end_regressions(after) == []
    assert layer_regressions(before, after) == ["cache"]


def test_layer_gate_absorbs_jitter_and_small_layers():
    before = _entry(pr=1)
    # 10% more CPU seconds in total, and a 3% layer that grows by two
    # thirds but stays under the floor
    after = _entry(pr=2, layers={
        "cpu_s": 2.2,
        "share_pct": {"engine": 38.0, "cache": 19.0, "dram": 4.5,
                      "warp": 38.5}})
    assert layer_regressions(before, after) == []


#: the default synthetic profile, 1.4x slower on every layer: what host
#: drift between two sessions looks like
_DRIFTED = {"cpu_s": 2.8,
            "share_pct": {"engine": 40.0, "cache": 20.0, "dram": 3.0,
                          "warp": 37.0}}


def test_layer_gate_reads_parent_layers_when_recorded():
    before = _entry(pr=1)
    # the whole host drifted 40% slower since the previous entry, but
    # the same-session parent drifted with it: no regression
    drifted = _entry(pr=2, layers=_DRIFTED, parent_layers=_DRIFTED)
    assert layer_regressions(before, drifted) == []
    # a layer that grew against the same-session parent is flagged even
    # though the previous entry's seconds are larger still
    slower = _entry(pr=2, layers={
        "cpu_s": 1.0,
        "share_pct": {"engine": 34.0, "cache": 26.0, "dram": 3.0,
                      "warp": 37.0}},
        parent_layers={"cpu_s": 1.0,
                       "share_pct": {"engine": 40.0, "cache": 20.0,
                                     "dram": 3.0, "warp": 37.0}})
    assert layer_regressions(before, slower) == ["cache"]


def test_layer_gate_falls_back_to_the_previous_entry():
    before = _entry(pr=1)
    # no parent profile recorded: host drift reads as a regression of
    # every layer above the floor
    assert layer_regressions(before, _entry(pr=2, layers=_DRIFTED)) \
        == ["cache", "engine", "warp"]


def test_gate_flags_incomplete_parent_layers():
    entry = _entry(parent_layers=_DRIFTED)
    del entry["parent_layers"]["KM/ccsm"]
    assert missing_fields(entry) == ["parent_layers/KM/ccsm"]
