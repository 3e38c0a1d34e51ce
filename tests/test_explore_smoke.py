"""The design-space explorer's acceptance contract, end to end.

``repro explore VA --points 200 --top-k 4 --seed 0`` must score at
least 200 points analytically in under 5 seconds of model time, confirm
1-4 frontier points by simulation (each with a fingerprint and a run
manifest), and land within 15% median model-vs-simulator tick error.
A second run with the same seed over the same cache must write the
identical report once the timing fields are removed.

Run alone with ``python -m pytest -m smoke``.
"""

import copy
import json

import pytest

from repro.cli import main
from repro.model.explorer import TIMING_FIELDS

pytestmark = pytest.mark.smoke


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Two same-seed ``repro explore`` reports over one cache."""
    root = tmp_path_factory.mktemp("explore_smoke")
    documents = []
    for name in ("first", "repeat"):
        report_path = root / f"{name}.json"
        assert main(["explore", "VA", "--points", "200", "--top-k", "4",
                     "--seed", "0", "--cache-dir", str(root / "cache"),
                     "--report-out", str(report_path)]) == 0
        documents.append(json.loads(report_path.read_text()))
    return documents


def test_explorer_contract(reports):
    report = reports[0]
    assert report["scored_points"] >= 200
    assert report["model_s"] < 5.0
    validation = report["validation"]
    validated = validation["validated_points"]
    assert 1 <= len(validated) <= 4
    for point in validated:
        assert point["fingerprint"], point
        assert point["manifest"], point
    error = validation["median_rel_error"]
    assert error is not None and error <= 0.15


def _without_timing(report):
    report = copy.deepcopy(report)
    for field in TIMING_FIELDS:
        report.pop(field, None)
        report["validation"].pop(field, None)
    return report


def test_same_seed_reproduces_report(reports):
    assert _without_timing(reports[0]) == _without_timing(reports[1])
