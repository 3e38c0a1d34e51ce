"""Coherence safety holds at every phase boundary of real runs.

``HammerSystem.check_invariants`` (one owner per line, an exclusive copy
excludes every other, copies agree with the owner or with memory) runs
here at every phase boundary of Table II small points with values
tracked, not only on a final state.  The check is installed by wrapping
``_start_next_phase`` on the system instance, so the simulator carries
no hook for it.  It must be read-only: where ``perfbench/reference.json``
records the point (CCSM and direct store), the checked run's ticks
equal the recorded ones.

``benchmarks/test_coherence_invariants.py`` runs the same check over all
22 codes in all four modes.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import SystemConfig
from repro.core.protocol_mode import CoherenceMode
from repro.core.system import IntegratedSystem
from repro.workloads.suite import get_workload

REFERENCE = json.loads((Path(__file__).resolve().parent.parent
                        / "perfbench" / "reference.json").read_text())

#: a mix of the CPU-producer, graph and streaming codes, ~15 s in all
#: four modes
CODES = ("PT", "BP", "FW", "GC", "MS", "SP", "CH", "VA")


def check_point(code, mode):
    """Run *code* small under *mode* with values tracked, checking the
    invariants at every phase boundary, and compare its ticks with the
    recorded ones."""
    system = IntegratedSystem(SystemConfig(track_values=True), mode)
    start_next_phase = system._start_next_phase
    checks = 0

    def checked(finish_tick):
        nonlocal checks
        system.engine.check_invariants()
        checks += 1
        start_next_phase(finish_tick)

    system._start_next_phase = checked
    try:
        result = system.run(get_workload(code, "small"))
        # one check before the first phase and one after each phase
        assert checks == len(system.phase_times) + 1
    finally:
        system.close()
    recorded = REFERENCE["points"].get(f"{code}/{mode.value}")
    if recorded is not None:
        assert result.total_ticks == recorded["total_ticks"]


@pytest.mark.parametrize("mode", list(CoherenceMode),
                         ids=[mode.value for mode in CoherenceMode])
@pytest.mark.parametrize("code", CODES)
def test_invariants_hold_at_every_phase_boundary(code, mode):
    check_point(code, mode)
