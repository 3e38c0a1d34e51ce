"""Coherence safety at every phase boundary of every Table II point.

The tier-1 ``tests/test_phase_invariants.py`` checks eight codes; this
bench runs the same check — ``check_invariants`` with values tracked at
every phase boundary, and the recorded ticks unmoved — over all 22
small codes in all four coherence modes (88 runs, about a minute).
"""

import sys
from pathlib import Path

import pytest

from repro.core.protocol_mode import CoherenceMode
from repro.workloads.suite import benchmark_codes

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.test_phase_invariants import check_point  # noqa: E402


@pytest.mark.parametrize("mode", list(CoherenceMode),
                         ids=[mode.value for mode in CoherenceMode])
@pytest.mark.parametrize("code", benchmark_codes())
def test_invariants_hold_at_every_phase_boundary(code, mode):
    check_point(code, mode)
