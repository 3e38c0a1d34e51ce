"""Coherence transitions as seen through the telemetry tracer.

The Hammer engine emits one ``coherence`` instant per state transition,
on the agent's track, with ``{line, from, to}`` args.
"""

import pytest

from repro.telemetry import TRACER, timeline_summary
from repro.telemetry.tracer import DEFAULT_CAPACITY
from tests.test_hammer import GPU, build_system


@pytest.fixture(autouse=True)
def traced():
    """The shared tracer is on and empty for each test, off afterwards."""
    TRACER.clear()
    TRACER.enable()
    yield
    TRACER.disable()
    TRACER.clear()


def transitions(name=None):
    return [event for event in TRACER.for_category("coherence")
            if name is None or event.name == name]


def state_history(agent, line_address):
    """[first from-state, then every to-state] of one line at one agent."""
    events = [event for event in transitions()
              if event.track == agent and event.args["line"] == line_address]
    if not events:
        return []
    return [events[0].args["from"]] + [event.args["to"] for event in events]


def store_three_lines():
    system = build_system()
    for index in range(3):
        system.store("cpu", 0x1000 * (index + 1), index, index * 10 ** 6)


class TestTracerMechanics:
    def test_capacity_bound(self):
        store_three_lines()
        unbounded = len(TRACER)
        assert unbounded > 2
        TRACER.clear()
        TRACER.configure(capacity=2)
        try:
            store_three_lines()
            assert len(TRACER) == 2
            assert TRACER.dropped == unbounded - 2
            assert "(dropped)" in timeline_summary(TRACER)
        finally:
            TRACER.configure(capacity=DEFAULT_CAPACITY)

    def test_clear(self):
        build_system().load("cpu", 0x1000, 0)
        assert transitions()
        TRACER.clear()
        assert len(TRACER) == 0
        assert TRACER.dropped == 0


class TestTracedTransitions:
    def test_fill_traced(self):
        system = build_system()
        system.load("cpu", 0x1000, 0)
        fills = transitions("Load(fill)")
        assert len(fills) == 1
        assert fills[0].args == {"line": 0x1000, "from": "I", "to": "M"}

    def test_remote_store_trace_sequence(self):
        system = build_system()
        system.remote_store("cpu", GPU, 0x2000, 5, 0)
        arrive = transitions("RemoteStoreArrive")
        assert arrive[0].track == GPU
        assert arrive[0].args["from"] == "I"
        assert arrive[0].args["to"] == "MM"

    def test_probe_demotion_traced(self):
        system = build_system()
        t = system.store("cpu", 0x3000, 1, 0).ready_tick
        system.load(GPU, 0x3000, t)
        demotions = transitions("ProbeGETS")
        assert demotions[0].track == "cpu"
        assert demotions[0].args["from"] == "MM"
        assert demotions[0].args["to"] == "O"

    def test_state_history_for_line(self):
        system = build_system()
        t = system.store("cpu", 0x3000, 1, 0).ready_tick   # I -> MM
        system.load(GPU, 0x3000, t)                        # cpu MM -> O
        assert state_history("cpu", 0x3000) == ["I", "MM", "O"]

    def test_silent_upgrade_traced(self):
        system = build_system()
        t = system.load("cpu", 0x1000, 0).ready_tick       # fills M
        system.store("cpu", 0x1000, 2, t)                  # silent M->MM
        upgrades = transitions("Store(silent)")
        assert upgrades[0].args["from"] == "M"
        assert upgrades[0].args["to"] == "MM"

    def test_for_line_and_for_agent_filters(self):
        system = build_system()
        system.store("cpu", 0x1000, 1, 0)
        system.store("cpu", 0x2000, 2, 10 ** 6)
        for_line = [event for event in transitions()
                    if event.args["line"] == 0x1000]
        for_agent = [event for event in transitions()
                     if event.track == "cpu"]
        assert [event.name for event in for_line] == ["Store(fill)"]
        assert {event.args["line"] for event in for_agent} == {0x1000,
                                                                0x2000}

    def test_tracer_never_affects_timing(self):
        traced = build_system()
        t_traced = traced.store("cpu", 0x1000, 1, 0).ready_tick
        TRACER.disable()
        plain = build_system()
        t_plain = plain.store("cpu", 0x1000, 1, 0).ready_tick
        assert transitions()
        assert t_plain == t_traced
