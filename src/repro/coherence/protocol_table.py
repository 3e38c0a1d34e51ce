"""The Hammer state-transition specification, as data.

This module encodes the paper's Fig. 3 — the modified Hammer diagram —
as a lookup table ``(state, event) → (next_state, actions)``.  The
runtime engine consults this table for every transition: the coherence
walk (:mod:`repro.coherence.batch_kernel`), the remote store and the
replacement path (:mod:`repro.coherence.hammer`) read their legality,
action and next state from it, the hot paths through the per-event
view at the end of this module.  Two next states are engine policy
instead of table rows: the exclusive-clean grant (a load miss that
finds no other copy fills in ``M``) and the §III-A DRAM bypass (a
forward to a full GPU L2 set leaves the slice in ``I``).
The test suite checks the table against the protocol's safety rules,
and an exhaustive search over the real walks checks that every
transition they perform is a table row or one of those two policies,
so specification and implementation cannot drift apart silently.

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


#: the per-event view the engine reads: ``state -> (next_state, action)``
#: per event, derived from ``PROTOCOL_TABLE`` at import time.  One dict
#: lookup on the state object replaces hashing a two-enum key; a missing
#: state means the event is illegal there.
_BY_EVENT: Dict[ProtocolEvent,
                Dict[HammerState, Tuple[HammerState, Action]]] = {
    event: {state: PROTOCOL_TABLE[(state, event)]
            for state in HammerState
            if (state, event) in PROTOCOL_TABLE}
    for event in ProtocolEvent}

LOAD_TRANSITIONS = _BY_EVENT[ProtocolEvent.LOAD]
STORE_TRANSITIONS = _BY_EVENT[ProtocolEvent.STORE]
PROBE_GETS_TRANSITIONS = _BY_EVENT[ProtocolEvent.PROBE_GETS]
PROBE_GETX_TRANSITIONS = _BY_EVENT[ProtocolEvent.PROBE_GETX]
REMOTE_STORE_LOCAL_TRANSITIONS = _BY_EVENT[
    ProtocolEvent.REMOTE_STORE_LOCAL]
REMOTE_STORE_ARRIVE_TRANSITIONS = _BY_EVENT[
    ProtocolEvent.REMOTE_STORE_ARRIVE]
