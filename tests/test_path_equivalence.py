"""Simulation paths reproduce their oracles on real Table II points.

* The batched coherence kernel against the layered per-message port
  path (``REPRO_BATCH_KERNEL=0``), on KM and FW under every coherence
  mode: equal ``total_ticks`` and an equal full statistics dict.
* The one shipping path against the committed record: VA, KM and FW
  small under CCSM and direct store reproduce their
  ``perfbench/reference.json`` signatures exactly.

Run alone with ``python -m pytest -m smoke``.
"""

import sys
from pathlib import Path

import pytest

from repro.core.protocol_mode import CoherenceMode
from repro.harness.runner import run_benchmark

# perfbench/suite.py is imported read-only, as perfbench/tests does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                       / "perfbench"))
from suite import (  # noqa: E402
    BASE_CTX_SEED,
    load_reference,
    point_key,
    run_point,
    signature,
)

pytestmark = pytest.mark.smoke

KERNEL_CASES = [(code, mode) for code in ("KM", "FW")
                for mode in CoherenceMode]


def _run_both(monkeypatch, knob, fast, reference, code, mode):
    results = []
    for value in (fast, reference):
        monkeypatch.setenv(knob, value)
        results.append(run_benchmark(code, "small", mode))
    return results


def _assert_identical(fast, reference):
    assert fast.total_ticks == reference.total_ticks
    assert fast.stats == reference.stats


@pytest.mark.parametrize(
    "code,mode", KERNEL_CASES,
    ids=[f"{code}-{mode.value}" for code, mode in KERNEL_CASES])
def test_batch_kernel_matches_layered_path(monkeypatch, code, mode):
    _assert_identical(*_run_both(monkeypatch, "REPRO_BATCH_KERNEL",
                                 "1", "0", code, mode))


def test_points_match_committed_reference():
    reference = load_reference()
    assert reference["ctx_seed"] == BASE_CTX_SEED
    mismatched = []
    for code in ("VA", "KM", "FW"):
        for mode in (CoherenceMode.CCSM, CoherenceMode.DIRECT_STORE):
            key = point_key(code, mode)
            observed = signature(run_point(code, mode, BASE_CTX_SEED))
            if observed != reference["points"][key]:
                mismatched.append(key)
    assert mismatched == []
