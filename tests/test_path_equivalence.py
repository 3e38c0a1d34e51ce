"""Equivalent simulation paths produce identical results.

Two fast paths each keep a reference implementation behind a knob:

* the batched coherence kernel, against the layered per-message port
  path (``REPRO_BATCH_KERNEL=0``), on KM and FW under every coherence
  mode;
* the vectorized warp pipeline, against the scalar one
  (``REPRO_SCALAR_PIPELINE=1``), on VA under CCSM.

Every case runs a real Table II point both ways and requires equal
``total_ticks`` and an equal full statistics dict.  Run alone with
``python -m pytest -m smoke``.
"""

import pytest

from repro.core.protocol_mode import CoherenceMode
from repro.harness.runner import run_benchmark

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


def test_vectorized_pipeline_matches_scalar(monkeypatch):
    _assert_identical(*_run_both(monkeypatch, "REPRO_SCALAR_PIPELINE",
                                 "0", "1", "VA", CoherenceMode.CCSM))
