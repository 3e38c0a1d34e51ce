"""Sharing trace ops within a build never merges two distinct stores.

The trace builders share identical immutable ops within one build (see
:mod:`repro.workloads.patterns`).  BS, ST and SR re-read and re-write
the same buffers pass after pass, so they share the most.  Run small
under CCSM and direct store with values tracked and GPU loads
recorded, every SM's loaded values and the final memory image (memory
overlaid with every owner's cached line) must hash to the digests
recorded before ops were shared.  The passes store different values
to the same lines (BS stores its pass index), so a store folded into
another pass's op would change what a later load reads or what the
image holds.

Run alone with ``python -m pytest -m smoke``.
"""

import hashlib
import json

import pytest

from repro.core.config import SystemConfig
from repro.core.protocol_mode import CoherenceMode
from repro.core.system import IntegratedSystem
from repro.mem.memimage import WORD_SIZE
from repro.workloads.suite import get_workload

pytestmark = pytest.mark.smoke

#: (sha256 of every SM's loaded values, sha256 of the final memory
#: image) per small point, recorded with one fresh op object per pass
PINNED_VALUES = {
    ("BS", "ccsm"): (
        "7e5b2a45e5a4a46662b3f4a0309c7bf30fdb507ba9699dcbbc2acaf08c561517",
        "9cbb463e93999e4e42cfc4790fc74e304b72709bc32ca08fc8a36b8dfa21ea48"),
    ("BS", "direct_store"): (
        "a83b104c887b1eeb3a032ef8f70981076ceb2e395d343e1648dd725203b7ee73",
        "9cbb463e93999e4e42cfc4790fc74e304b72709bc32ca08fc8a36b8dfa21ea48"),
    ("ST", "ccsm"): (
        "718c964d69a0ad6716448f5198cfdcbb4c3286f3ee46022c24fa70f504db2844",
        "5a34314870ffd2a0b8f3875911c74e99cc265786a2b1f5db96b0af134f9303f5"),
    ("ST", "direct_store"): (
        "a34d651e5ef0e605c98fac2cccb5840f2e7f6eb87c0eb01556b51dff67b2b44e",
        "5a34314870ffd2a0b8f3875911c74e99cc265786a2b1f5db96b0af134f9303f5"),
    ("SR", "ccsm"): (
        "f0db788a508b29d6d9c3b2dc3bb02d50d3492de9cd5e6bf54acbbe6fbb582508",
        "40e4e6c59391789212766c7961bb49c914ba7c759fd04ce514dfd40d1d8055f3"),
    ("SR", "direct_store"): (
        "3be5831dad0367c5c4fbe058683fb8573fe1df17e191ee19138c0f3d6a6f444b",
        "40e4e6c59391789212766c7961bb49c914ba7c759fd04ce514dfd40d1d8055f3"),
}

CASES = sorted(PINNED_VALUES)


def final_image(system):
    """Memory words overlaid with every owner's cached line.

    These runs write nothing back, so the memory image alone is empty;
    the program's stores live in owner lines (after the CPU's dirty L1D
    words are pushed into its L2).
    """
    for line_address, _line in system.cpu_l2.resident_lines():
        system.cpu_mem.flush_l1_to_l2(line_address)
    words = dict(system.image._words)
    for agent in system.engine.agents.values():
        for line_address, line in agent.cache.resident_lines():
            if line.state.is_owner and line.data:
                base = line_address // WORD_SIZE
                for offset, value in line.data.items():
                    words[base + offset] = value
    return sorted(words.items())


def value_digests(code, mode):
    system = IntegratedSystem(SystemConfig(track_values=True), mode,
                              record_gpu_loads=True)
    try:
        system.run(get_workload(code, "small"))
        loads = json.dumps([sm.loaded_values for sm in system.sms])
        image = json.dumps(final_image(system))
    finally:
        system.close()
    return (hashlib.sha256(loads.encode()).hexdigest(),
            hashlib.sha256(image.encode()).hexdigest())


@pytest.mark.parametrize("code,mode", CASES,
                         ids=[f"{code}-{mode}" for code, mode in CASES])
def test_values_match_unshared_build(code, mode):
    assert value_digests(code, CoherenceMode(mode)) == \
        PINNED_VALUES[(code, mode)]
