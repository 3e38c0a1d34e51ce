"""Tests of the protocol *specification* (the Fig. 3 transition table).

These check the table itself — the declarative encoding of the paper's
modified Hammer diagram — independently of the runtime engine, and that
docs/PROTOCOL.md shows it as it is.
"""

from pathlib import Path

import pytest

from repro.coherence.protocol_table import (
    PROTOCOL_TABLE,
    Action,
    ProtocolEvent,
    ProtocolViolationError,
    next_state,
)
from repro.coherence.states import HammerState

STABLE = list(HammerState)


class TestStateProperties:
    def test_owners(self):
        owners = {s for s in STABLE if s.is_owner}
        assert owners == {HammerState.MM, HammerState.M, HammerState.O}

    def test_exclusive(self):
        exclusive = {s for s in STABLE if s.is_exclusive}
        assert exclusive == {HammerState.MM, HammerState.M}

    def test_only_mm_writable(self):
        # a store completes with no message and no state change only in MM
        writable = {s for s in STABLE
                    if PROTOCOL_TABLE[(s, ProtocolEvent.STORE)]
                    == (s, Action.NONE)}
        assert writable == {HammerState.MM}

    def test_dirty_states(self):
        dirty = {s for s in STABLE
                 if PROTOCOL_TABLE.get((s, ProtocolEvent.REPLACEMENT),
                                       (None, None))[1]
                 is Action.WRITEBACK_DATA}
        assert dirty == {HammerState.MM, HammerState.O}

    def test_readable(self):
        # a load hits (no fetch, no state change) in every valid state
        readable = {s for s in STABLE
                    if PROTOCOL_TABLE[(s, ProtocolEvent.LOAD)]
                    == (s, Action.NONE)}
        assert readable == {HammerState.MM, HammerState.M, HammerState.O,
                            HammerState.S}


class TestTableCoverage:
    @pytest.mark.parametrize("state", STABLE)
    def test_loads_and_stores_defined_everywhere(self, state):
        assert (state, ProtocolEvent.LOAD) in PROTOCOL_TABLE
        assert (state, ProtocolEvent.STORE) in PROTOCOL_TABLE

    @pytest.mark.parametrize("state", STABLE)
    def test_probes_defined_everywhere(self, state):
        assert (state, ProtocolEvent.PROBE_GETS) in PROTOCOL_TABLE
        assert (state, ProtocolEvent.PROBE_GETX) in PROTOCOL_TABLE

    @pytest.mark.parametrize("state",
                             [s for s in STABLE if s != HammerState.I])
    def test_replacement_defined_for_valid_states(self, state):
        assert (state, ProtocolEvent.REPLACEMENT) in PROTOCOL_TABLE


class TestPaperTransitions:
    """The specific transitions Fig. 3 calls out."""

    def test_remote_store_from_i_stays_i(self):
        # "the protocol starts from state I ... and remains in state I"
        state, action = next_state(HammerState.I,
                                   ProtocolEvent.REMOTE_STORE_LOCAL)
        assert state is HammerState.I
        assert action is Action.FORWARD_STORE

    @pytest.mark.parametrize("start", [HammerState.S, HammerState.M,
                                       HammerState.MM, HammerState.O])
    def test_remote_store_from_valid_states_goes_to_i(self, start):
        # "All remote stores that begin from these states always go to I"
        state, action = next_state(start, ProtocolEvent.REMOTE_STORE_LOCAL)
        assert state is HammerState.I
        assert action is Action.FLUSH_THEN_FORWARD

    def test_remote_store_arrival_installs_mm(self):
        # the blue dashed I -> MM transition
        state, action = next_state(HammerState.I,
                                   ProtocolEvent.REMOTE_STORE_ARRIVE)
        assert state is HammerState.MM
        assert action is Action.INSTALL_MM

    def test_remote_store_arrival_merges_in_mm(self):
        state, action = next_state(HammerState.MM,
                                   ProtocolEvent.REMOTE_STORE_ARRIVE)
        assert state is HammerState.MM
        assert action is Action.MERGE_STORE

    @pytest.mark.parametrize("start", [HammerState.S, HammerState.O,
                                       HammerState.M])
    def test_remote_store_arrival_from_demoted_states(self, start):
        """A GPU-written, CPU-read line can sit in S/O at the slice when
        a forward arrives; the CPU-side always-to-I transition has
        already removed the only other holder, so the merge is
        exclusive-safe ("before forwarding the data, the CPU will issue
        GETX")."""
        state, action = next_state(start,
                                   ProtocolEvent.REMOTE_STORE_ARRIVE)
        assert state is HammerState.MM
        assert action is Action.MERGE_STORE

    def test_stores_not_allowed_in_m_without_upgrade(self):
        # Fig. 3: "Stores are not allowed in state M" — the table must
        # route a store through the silent upgrade
        state, action = next_state(HammerState.M, ProtocolEvent.STORE)
        assert state is HammerState.MM
        assert action is Action.SILENT_UPGRADE

    def test_probe_gets_demotes_owners_to_o(self):
        for start in (HammerState.MM, HammerState.M):
            state, _ = next_state(start, ProtocolEvent.PROBE_GETS)
            assert state is HammerState.O

    def test_probe_getx_invalidates_everything(self):
        for start in STABLE:
            state, _ = next_state(start, ProtocolEvent.PROBE_GETX)
            assert state is HammerState.I

    def test_dirty_replacement_writes_back(self):
        for start in (HammerState.MM, HammerState.O):
            _, action = next_state(start, ProtocolEvent.REPLACEMENT)
            assert action is Action.WRITEBACK_DATA

    def test_shared_replacement_is_silent(self):
        _, action = next_state(HammerState.S, ProtocolEvent.REPLACEMENT)
        assert action is Action.NONE


class TestSafetyProperties:
    def test_remote_store_local_never_leaves_a_valid_copy(self):
        """DS data may only be cached at the GPU L2."""
        for state in STABLE:
            key = (state, ProtocolEvent.REMOTE_STORE_LOCAL)
            if key in PROTOCOL_TABLE:
                assert PROTOCOL_TABLE[key][0] is HammerState.I

    def test_remote_store_arrive_always_ends_modified(self):
        for state in STABLE:
            key = (state, ProtocolEvent.REMOTE_STORE_ARRIVE)
            if key in PROTOCOL_TABLE:
                assert PROTOCOL_TABLE[key][0] is HammerState.MM

    def test_no_transition_grants_write_without_exclusivity(self):
        """Any transition whose result is MM must come from an event that
        guarantees exclusivity (store w/ GETX, upgrade, or DS install)."""
        allowed_events = {ProtocolEvent.STORE,
                          ProtocolEvent.REMOTE_STORE_ARRIVE}
        for (state, event), (next_st, _action) in PROTOCOL_TABLE.items():
            if next_st is HammerState.MM and state is not HammerState.MM:
                assert event in allowed_events, (state, event)

    def test_violation_raises(self):
        with pytest.raises(ProtocolViolationError):
            next_state(HammerState.I, ProtocolEvent.REPLACEMENT)

    def test_violation_message_includes_context(self):
        with pytest.raises(ProtocolViolationError, match="gpu.l2.slice0"):
            next_state(HammerState.I, ProtocolEvent.REPLACEMENT,
                       context="gpu.l2.slice0")


class TestProtocolDoc:
    """docs/PROTOCOL.md carries the table as a state x event matrix."""

    MARKER = "<!-- protocol-table -->"

    @staticmethod
    def render():
        """One row per state, one column per event; each cell is
        ``next / action``, blank where the event is illegal."""
        events = list(ProtocolEvent)
        lines = ["| State | " + " | ".join(e.value for e in events) + " |",
                 "|---" * (len(events) + 1) + "|"]
        for state in HammerState:
            cells = []
            for event in events:
                row = PROTOCOL_TABLE.get((state, event))
                cells.append("" if row is None else
                             f"`{row[0].value}` / `{row[1].name}`")
            lines.append(f"| `{state.value}` | " + " | ".join(cells) + " |")
        return "\n".join(lines)

    def test_doc_matrix_matches_the_table(self):
        doc = (Path(__file__).resolve().parent.parent / "docs"
               / "PROTOCOL.md").read_text()
        parts = doc.split(self.MARKER)
        assert len(parts) == 3, f"expected one {self.MARKER} pair"
        expected = self.render()
        assert parts[1].strip() == expected, (
            "docs/PROTOCOL.md's protocol table differs from PROTOCOL_TABLE;"
            f" the block between the markers should read:\n{expected}")
