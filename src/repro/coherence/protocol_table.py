"""The Hammer state-transition specification, as data.

This module encodes the paper's Fig. 3 — the modified Hammer diagram —
as a lookup table ``(state, event) → (next_state, actions)``.  The
runtime engine (:mod:`repro.coherence.hammer`) consults this table for
every transition, and the test suite checks the table itself against the
protocol's safety rules, so specification and implementation cannot
drift apart silently.

Events
------

``LOAD`` / ``STORE``
    Local demand accesses at this controller.
``REPLACEMENT``
    The line is being evicted.
``PROBE_GETS`` / ``PROBE_GETX``
    Broadcast probes on behalf of another node's GETS/GETX.
``REMOTE_STORE_LOCAL``
    Direct-store extension, CPU side: the TLB detector fired and this
    store must be forwarded.  Bold transitions in Fig. 3 — every source
    state ends in ``I``.
``REMOTE_STORE_ARRIVE``
    Direct-store extension, GPU L2 side: a forwarded ``DS_PUTX``
    arrived.  The blue dashed ``I → MM`` transition in Fig. 3.

Actions
-------

Actions name the side effects the engine must perform; the engine raises
:class:`ProtocolViolationError` if asked for a transition the table does
not allow (e.g. a plain ``STORE`` in state ``M``, which Fig. 3 forbids
without the upgrade).
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Tuple

from repro.coherence.states import HammerState


class ProtocolEvent(Enum):
    """Everything that can happen to a cached line at one controller."""

    LOAD = "Load"
    STORE = "Store"
    REPLACEMENT = "Replacement"
    PROBE_GETS = "ProbeGETS"
    PROBE_GETX = "ProbeGETX"
    REMOTE_STORE_LOCAL = "RemoteStoreLocal"
    REMOTE_STORE_ARRIVE = "RemoteStoreArrive"


class Action(Enum):
    """Side effects attached to a transition."""

    NONE = "none"
    ISSUE_GETS = "issue_gets"          # fetch the line for reading
    ISSUE_GETX = "issue_getx"          # fetch/upgrade for writing
    SILENT_UPGRADE = "silent_upgrade"  # M -> MM, no traffic
    WRITEBACK_DATA = "writeback"       # send PUTX with data to memory
    SEND_PUTS = "send_puts"            # clean eviction notice
    SUPPLY_DATA = "supply_data"        # respond to a probe with data
    SEND_ACK = "send_ack"              # respond to a probe without data
    FORWARD_STORE = "forward_store"    # DS: send DS_PUTX over the network
    FLUSH_THEN_FORWARD = "flush_then_forward"  # DS from a valid state
    INSTALL_MM = "install_mm"          # DS arrive: allocate line in MM
    MERGE_STORE = "merge_store"        # DS arrive: line present, merge word


class ProtocolViolationError(RuntimeError):
    """An event fired in a state with no legal transition."""

    def __init__(self, state: HammerState, event: ProtocolEvent,
                 context: str = "") -> None:
        message = f"no transition for event {event.value} in state {state.value}"
        if context:
            message += f" ({context})"
        super().__init__(message)
        self.state = state
        self.event = event


_S = HammerState
_E = ProtocolEvent
_A = Action

#: ``(state, event) -> (next_state, action)``.
#:
#: For LOAD/STORE misses the "next state" recorded here is the stable
#: state reached *after* the fetch completes; the engine performs the
#: fetch named by the action.  GETS fills may land in S or M depending
#: on whether other copies exist — the table records S and the engine
#: upgrades the fill to M (exclusive-clean) when memory supplied the
#: data and no other cache holds it, which is Hammer's standard
#: exclusive-grant optimisation.
PROTOCOL_TABLE: Dict[Tuple[HammerState, ProtocolEvent],
                     Tuple[HammerState, Action]] = {
    # ---- local loads -------------------------------------------------
    (_S.I, _E.LOAD): (_S.S, _A.ISSUE_GETS),
    (_S.S, _E.LOAD): (_S.S, _A.NONE),
    (_S.O, _E.LOAD): (_S.O, _A.NONE),
    (_S.M, _E.LOAD): (_S.M, _A.NONE),
    (_S.MM, _E.LOAD): (_S.MM, _A.NONE),
    # ---- local stores ------------------------------------------------
    (_S.I, _E.STORE): (_S.MM, _A.ISSUE_GETX),
    (_S.S, _E.STORE): (_S.MM, _A.ISSUE_GETX),
    (_S.O, _E.STORE): (_S.MM, _A.ISSUE_GETX),
    # Fig. 3: "Stores are not allowed in state M" — the controller first
    # performs the silent exclusive upgrade M->MM, then stores.
    (_S.M, _E.STORE): (_S.MM, _A.SILENT_UPGRADE),
    (_S.MM, _E.STORE): (_S.MM, _A.NONE),
    # ---- replacements ------------------------------------------------
    (_S.S, _E.REPLACEMENT): (_S.I, _A.NONE),
    (_S.M, _E.REPLACEMENT): (_S.I, _A.SEND_PUTS),
    (_S.O, _E.REPLACEMENT): (_S.I, _A.WRITEBACK_DATA),
    (_S.MM, _E.REPLACEMENT): (_S.I, _A.WRITEBACK_DATA),
    # ---- probes on behalf of another node's GETS ----------------------
    (_S.I, _E.PROBE_GETS): (_S.I, _A.SEND_ACK),
    (_S.S, _E.PROBE_GETS): (_S.S, _A.SEND_ACK),
    (_S.O, _E.PROBE_GETS): (_S.O, _A.SUPPLY_DATA),
    (_S.M, _E.PROBE_GETS): (_S.O, _A.SUPPLY_DATA),
    (_S.MM, _E.PROBE_GETS): (_S.O, _A.SUPPLY_DATA),
    # ---- probes on behalf of another node's GETX ----------------------
    (_S.I, _E.PROBE_GETX): (_S.I, _A.SEND_ACK),
    (_S.S, _E.PROBE_GETX): (_S.I, _A.SEND_ACK),
    (_S.O, _E.PROBE_GETX): (_S.I, _A.SUPPLY_DATA),
    (_S.M, _E.PROBE_GETX): (_S.I, _A.SUPPLY_DATA),
    (_S.MM, _E.PROBE_GETX): (_S.I, _A.SUPPLY_DATA),
    # ---- direct store, CPU side (bold transitions in Fig. 3) ----------
    # "the protocol starts from state I and then data is forwarded
    #  directly ... the protocol remains in state I"
    (_S.I, _E.REMOTE_STORE_LOCAL): (_S.I, _A.FORWARD_STORE),
    # "we add the ability to do a remote store from states S, M, and MM.
    #  All remote stores that begin from these states always go to I."
    (_S.S, _E.REMOTE_STORE_LOCAL): (_S.I, _A.FLUSH_THEN_FORWARD),
    (_S.M, _E.REMOTE_STORE_LOCAL): (_S.I, _A.FLUSH_THEN_FORWARD),
    (_S.MM, _E.REMOTE_STORE_LOCAL): (_S.I, _A.FLUSH_THEN_FORWARD),
    # O is not drawn in Fig. 3's bold set but is reachable in hybrid
    # mode; it follows the same always-to-I rule for safety.
    (_S.O, _E.REMOTE_STORE_LOCAL): (_S.I, _A.FLUSH_THEN_FORWARD),
    # ---- direct store, GPU L2 side (blue dashed transition) -----------
    # "Every time a remote store arrives at the GPU L2 cache, it will
    #  transition from state I to MM."
    (_S.I, _E.REMOTE_STORE_ARRIVE): (_S.MM, _A.INSTALL_MM),
    # Repeated stores to a line already pushed: merge in place.
    (_S.MM, _E.REMOTE_STORE_ARRIVE): (_S.MM, _A.MERGE_STORE),
    (_S.M, _E.REMOTE_STORE_ARRIVE): (_S.MM, _A.MERGE_STORE),
    # S/O arrivals occur when the GPU previously wrote the line and the
    # CPU read it (demoting the slice to O / sharing to S) before
    # remote-storing it.  Fig. 3's rationale covers this: "before
    # forwarding the data, the CPU will issue GETX" — the CPU-side
    # always-to-I transition removes the only other possible holder
    # before the forward, so by arrival the slice is the sole copy and
    # upgrading it to MM in place is exclusive-safe.
    (_S.S, _E.REMOTE_STORE_ARRIVE): (_S.MM, _A.MERGE_STORE),
    (_S.O, _E.REMOTE_STORE_ARRIVE): (_S.MM, _A.MERGE_STORE),
}


def next_state(state: HammerState, event: ProtocolEvent,
               context: str = "") -> Tuple[HammerState, Action]:
    """Look up the legal transition or raise :class:`ProtocolViolationError`."""
    try:
        return PROTOCOL_TABLE[(state, event)]
    except KeyError:
        raise ProtocolViolationError(state, event, context) from None


# ----------------------------------------------------------------------
# dense derived tables (the transition fast path)
# ----------------------------------------------------------------------
#
# ``PROTOCOL_TABLE`` stays the single source of truth — everything below
# is derived from it at import time, so the safety tests that check the
# declarative table transitively cover the fast paths too.

#: stable integer indices for states and actions (definition order)
STATE_INDEX: Dict[HammerState, int] = {
    state: i for i, state in enumerate(HammerState)}
ACTION_INDEX: Dict[Action, int] = {
    action: i for i, action in enumerate(Action)}
STATE_BY_INDEX: Tuple[HammerState, ...] = tuple(HammerState)
N_STATES = len(STATE_BY_INDEX)

#: per-event transition rows for the interpreted hot path: one dict
#: lookup on the state object replaces tuple construction + hashing of
#: a two-enum key.  ``row.get(state)`` returning ``None`` means illegal.
_BY_EVENT: Dict[ProtocolEvent,
                Dict[HammerState, Tuple[HammerState, Action]]] = {
    event: {state: PROTOCOL_TABLE[(state, event)]
            for state in HammerState
            if (state, event) in PROTOCOL_TABLE}
    for event in ProtocolEvent}

LOAD_TRANSITIONS = _BY_EVENT[ProtocolEvent.LOAD]
STORE_TRANSITIONS = _BY_EVENT[ProtocolEvent.STORE]
REPLACEMENT_TRANSITIONS = _BY_EVENT[ProtocolEvent.REPLACEMENT]
PROBE_GETS_TRANSITIONS = _BY_EVENT[ProtocolEvent.PROBE_GETS]
PROBE_GETX_TRANSITIONS = _BY_EVENT[ProtocolEvent.PROBE_GETX]
REMOTE_STORE_LOCAL_TRANSITIONS = _BY_EVENT[
    ProtocolEvent.REMOTE_STORE_LOCAL]
REMOTE_STORE_ARRIVE_TRANSITIONS = _BY_EVENT[
    ProtocolEvent.REMOTE_STORE_ARRIVE]


# ----------------------------------------------------------------------
# per-event dense rows (the coherence walk's form)
# ----------------------------------------------------------------------
#
# The coherence walk (:mod:`repro.coherence.batch_kernel`) classifies
# messages by integer state index, so each event gets a
# state-indexed row of next-state / action indices (``-1`` = illegal).
# Like the flat tables above these are *derived* from ``PROTOCOL_TABLE``
# at import time and carry no information of their own.

def _event_rows(event: ProtocolEvent) -> "Tuple[List[int], List[int]]":
    next_row = [-1] * N_STATES
    action_row = [-1] * N_STATES
    for _state, (_next, _action) in _BY_EVENT[event].items():
        next_row[STATE_INDEX[_state]] = STATE_INDEX[_next]
        action_row[STATE_INDEX[_state]] = ACTION_INDEX[_action]
    return next_row, action_row


LOAD_NEXT_ROW, LOAD_ACTION_ROW = _event_rows(ProtocolEvent.LOAD)
STORE_NEXT_ROW, STORE_ACTION_ROW = _event_rows(ProtocolEvent.STORE)
PROBE_GETS_NEXT_ROW, PROBE_GETS_ACTION_ROW = _event_rows(
    ProtocolEvent.PROBE_GETS)
PROBE_GETX_NEXT_ROW, PROBE_GETX_ACTION_ROW = _event_rows(
    ProtocolEvent.PROBE_GETX)
REPLACEMENT_NEXT_ROW, REPLACEMENT_ACTION_ROW = _event_rows(
    ProtocolEvent.REPLACEMENT)

#: action indices the kernel branches on (named so call sites read)
A_NONE = ACTION_INDEX[Action.NONE]
A_ISSUE_GETS = ACTION_INDEX[Action.ISSUE_GETS]
A_ISSUE_GETX = ACTION_INDEX[Action.ISSUE_GETX]
A_SILENT_UPGRADE = ACTION_INDEX[Action.SILENT_UPGRADE]
A_WRITEBACK_DATA = ACTION_INDEX[Action.WRITEBACK_DATA]
A_SEND_PUTS = ACTION_INDEX[Action.SEND_PUTS]
A_SUPPLY_DATA = ACTION_INDEX[Action.SUPPLY_DATA]
A_SEND_ACK = ACTION_INDEX[Action.SEND_ACK]
