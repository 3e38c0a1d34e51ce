"""The benchmark's own tests, at tiny run lengths.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

from common import BENCH_DIR, END_TO_END, PER_LAYER, ROOT
import run
import service
import suite

SMALL_CODES = ["LV", "PT"]


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_every_reported_metric():
    spec = benchmark_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_suite_prints_every_metric_with_a_unit(trace):
    outcome = suite.run("suite-push", seed=0, seconds=0, trace=trace,
                        codes=SMALL_CODES)
    line = run.result_line(outcome, trace)
    table = PER_LAYER if trace else END_TO_END
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= len(SMALL_CODES)
    assert set(line["metrics"]) == set(table)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == table[name]
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(metric["value"] > 0
                   for metric in line["metrics"].values())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_service_cli_prints_every_metric_with_a_unit(trace):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service-mix",
         "--seed", "3", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert completed.returncode == 0, completed.stderr
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    table = PER_LAYER if trace == "1" else END_TO_END
    assert {name: metric["unit"] for name, metric in
            line["metrics"].items()} == table
    if trace == "0":
        assert all(metric["value"] > 0
                   for metric in line["metrics"].values())


def test_tampered_reference_raises_error_ratio():
    reference = copy.deepcopy(suite.load_reference())
    reference["points"]["PT/direct_store"]["total_ticks"] += 1
    outcome = suite.run("suite-push", seed=0, seconds=0, trace=False,
                        codes=SMALL_CODES, reference=reference)
    assert outcome["failed"] >= 1
    assert outcome["failed"] / outcome["attempted"] > 0
    assert not run.result_line(outcome, False)["correct"]


def test_seed_without_reference_checks_repetition():
    outcome = suite.run("suite-pull", seed=1, seconds=0, trace=False,
                        codes=["BF"])
    # BF's frontier inputs come from ctx.seed: no reference at seed 1,
    # so the point runs twice and the two runs must agree
    assert outcome["attempted"] == 2
    assert outcome["failed"] == 0


def test_traced_self_times_fit_inside_their_parents():
    outcome = suite.run("suite-pull", seed=0, seconds=0, trace=True,
                        codes=SMALL_CODES)
    exported = outcome["tracer"].export()
    spans = {span["id"]: span for span in exported["spans"]}
    slack = 1e-6
    for span in spans.values():
        duration = span["end"] - span["start"]
        assert -slack <= span["self_s"] <= duration + slack
        parent = spans.get(span["parent"])
        if parent is not None:
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
    for row in exported["aggregates"]:
        assert -slack <= row["self_s"] <= row["total_s"] + slack
        parent = spans[row["parent"]]
        assert row["total_s"] <= parent["end"] - parent["start"] + slack
    per_layer = outcome["per_layer"]
    assert per_layer["coherence.port_s"] > 0
    assert 0 < per_layer["trace.covered_pct"] <= 100


def test_job_stream_is_seeded_with_a_fixed_fresh_share():
    first, second = service.JobStream(5), service.JobStream(5)
    for _ in range(3):
        fresh, repeats = first.next_round()
        assert (fresh, repeats) == second.next_round()
        assert sorted(p["code"] for p in fresh) == \
            sorted(service.FRESH_CODES)
        assert len(repeats) == service.REPEATS_PER_ROUND
        assert all(payload in first.points for payload in repeats)
    assert len(first.points) == 3 * len(service.FRESH_CODES)
    assert service.JobStream(6).next_round() != \
        service.JobStream(5).next_round()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-pull",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert completed.returncode != 0
    assert "metrics" not in completed.stdout
