"""The coherence walk: the one implementation of a coherent demand access.

A demand access either hits, resolving the hit with demand statistics,
or walks the Hammer protocol: the GETS/GETX fetch of paper Fig. 3, or
the S/O upgrade of a store that finds a shared copy.
:class:`CoherenceWalk` does all three for one agent as straight-line
code over constants resolved once per agent:

* **Hammer state transitions** — every legality check, action and
  next state is read from the protocol table's per-event
  ``state → (next_state, action)`` view
  (:mod:`repro.coherence.protocol_table`), except the exclusive-clean
  grant of a load miss that finds no other copy;
* **DRAM bank/row timing** — a bound
  :meth:`~repro.mem.dram.DramModel.access`, called directly;
* **crossbar booking** — cached ``(egress, ingress, size)`` routes
  (:meth:`~repro.interconnect.network.Crossbar.route`) booked directly,
  with the network's message counters bumped once per walk;
* **probe targets** — one record per other agent, in registration
  order, resolved when the walk is built.

Every caller takes this walk: :class:`PortBatchKernel`, the event-driven
request path of every :class:`~repro.coherence.port.CoherentPort`, and
the synchronous ``HammerSystem.load``/``store``/``prefetch``
(:meth:`~repro.coherence.hammer.HammerSystem.walk`).  Tracing never
selects a different path: under ``TRACER.enabled`` the walk itself
emits the cache ``miss``/``first_touch_hit`` instants, one crossbar
``network`` span per message, and the ``Load(fill)``, ``Store(fill)``,
``ProbeGETS``, ``ProbeGETX``, ``Store(silent)`` and ``Store(upgrade)``
coherence instants.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Tuple

from repro.coherence.hammer import (MEMCTRL, AccessResult, CoherentAgent,
                                    HammerSystem)
from repro.coherence.protocol_table import (
    LOAD_TRANSITIONS,
    PROBE_GETS_TRANSITIONS,
    PROBE_GETX_TRANSITIONS,
    STORE_TRANSITIONS,
    Action,
    ProtocolEvent,
    ProtocolViolationError,
)
from repro.coherence.states import HammerState
from repro.interconnect.message import MessageClass
from repro.telemetry.tracer import TRACER

Callback = Callable[[AccessResult], None]

_STATE_M = HammerState.M
_STATE_I = HammerState.I

#: actions the walk branches on, compared by identity (an ``Action.X``
#: attribute lookup per access is measurable in the hit path)
_NONE = Action.NONE
_SILENT_UPGRADE = Action.SILENT_UPGRADE
_ISSUE_GETX = Action.ISSUE_GETX
_SUPPLY_DATA = Action.SUPPLY_DATA

#: crossbar span labels, as ``Crossbar.send_raw`` names its messages
_REQUEST = MessageClass.REQUEST.name.lower()
_RESPONSE = MessageClass.RESPONSE.name.lower()
_DATA = MessageClass.DATA.name.lower()


class CoherenceWalk:
    """Demand accesses of one coherent agent.

    Built on first use by :meth:`HammerSystem.walk
    <repro.coherence.hammer.HammerSystem.walk>`, once every agent is
    registered: the probe-target records cover every other agent.
    """

    def __init__(self, engine: HammerSystem,
                 agent: CoherentAgent) -> None:
        network = engine.network
        cache = agent.cache
        name = agent.name
        self._engine = engine
        self._agent = agent
        self._name = name
        self._line_mask = ~(engine.line_size - 1)

        self._cache_name = cache.name
        self._line_map_get = cache._line_map.get
        self._line_shift = cache.layout.line_shift
        self._index_mask = cache.layout.index_mask
        self._policy_on_access = cache.policy.on_access
        self._cache_fill = cache.fill
        self._touched = cache._touched
        self._demand_seen = cache._demand_seen
        self._c_accesses = cache._accesses
        self._c_hits = cache._hits
        self._c_misses = cache._misses
        self._c_compulsory = cache._compulsory
        self._c_first_touch = cache._first_touch_hits

        self._tag_ticks = agent.tag_ticks
        self._may_cache = agent.may_cache
        self._memctrl_ticks = engine._memctrl_ticks
        self._image = engine.image
        self._dram_access = engine.dram.access

        self._gets = engine._gets
        self._getx = engine._getx
        self._upgrades = engine._upgrades
        self._probes = engine._probes
        self._owner_transfers = engine._owner_transfers
        self._memory_fetches = engine._memory_fetches

        # routes this walk can book, resolved once.  Wire sizes come
        # from the network's class table so accounting matches send_raw.
        req_eg, req_in, req_size = network.route(
            name, MEMCTRL, MessageClass.REQUEST)
        self._req_egress_send = req_eg.send
        self._req_ingress_send = req_in.send
        self._req_size = req_size
        mc_eg, _first_in, _size = network.route(
            MEMCTRL, name, MessageClass.REQUEST)
        self._mc_probe_egress_send = mc_eg.send
        data_eg, data_in, data_size = network.route(
            MEMCTRL, name, MessageClass.DATA)
        self._mc_data_egress_send = data_eg.send
        self._data_ingress_send = data_in.send
        self._data_size = data_size
        self._resp_size = MessageClass.RESPONSE.size_bytes(
            network.line_size)
        self._net_messages, self._net_bytes = network.message_counters
        self._network_name = network.name

        # per-target probe records, in agent registration order; empty
        # when broadcasting is off (standalone direct store, §III-H)
        self._targets: List[tuple] = []
        if engine.broadcast_enabled:
            for target in engine.agents.values():
                if target is agent:
                    continue
                _eg, probe_in, _size = network.route(
                    MEMCTRL, target.name, MessageClass.REQUEST)
                resp_eg, resp_in, _resp_size = network.route(
                    target.name, name, MessageClass.RESPONSE)
                tdata_eg, tdata_in, _tdata_size = network.route(
                    target.name, name, MessageClass.DATA)
                self._targets.append((
                    target,
                    target.name,
                    target.probe_filter,
                    probe_in.send,
                    resp_eg.send,
                    resp_in.send,
                    tdata_eg.send,
                    tdata_in.send,
                    target.cache._line_map.get,
                    target.cache.layout.line_shift,
                    target.tag_ticks,
                ))

    # ------------------------------------------------------------------
    # the demand access
    # ------------------------------------------------------------------

    def access(self, address: int, value: Optional[int], is_store: bool,
               now: int) -> AccessResult:
        """One demand load (or store of *value*) issued at tick *now*."""
        line_address = address & self._line_mask
        local_line = address >> self._line_shift
        t_tags = now + self._tag_ticks
        hit_entry = self._line_map_get(local_line)

        # --- demand-access statistics ----------------------------------
        self._c_accesses.value += 1
        if hit_entry is not None:
            way, line = hit_entry
            self._policy_on_access(local_line & self._index_mask, way)
            self._c_hits.value += 1
            demand_seen = self._demand_seen
            if line_address not in demand_seen:
                demand_seen.add(line_address)
                self._c_first_touch.value += 1
                if TRACER.enabled:
                    TRACER.instant("cache", "first_touch_hit", TRACER.now(),
                                   track=self._cache_name,
                                   args={"line": line_address})
            if is_store:
                return self._store_hit(line, address, value, t_tags)
            return self._load_hit(line, address, t_tags)

        self._c_misses.value += 1
        compulsory = line_address not in self._touched
        if compulsory:
            self._c_compulsory.value += 1
        self._demand_seen.add(line_address)
        if TRACER.enabled:
            TRACER.instant("cache", "miss", TRACER.now(),
                           track=self._cache_name,
                           args={"line": line_address,
                                 "compulsory": compulsory})

        # --- the miss walk ---------------------------------------------
        ready, source = self.fetch(line_address, t_tags, is_store)
        if is_store:
            self._write_word(self._line_map_get(local_line)[1], address,
                             value)
            return AccessResult(ready, value, False, source)
        word = None
        image = self._image
        if image is not None:
            filled = self._line_map_get(local_line)[1]
            if filled.data is not None:
                word = filled.data.get((address % image.line_size) // 4, 0)
        return AccessResult(ready, word, False, source)

    # ------------------------------------------------------------------
    # hit resolution (table-driven)
    # ------------------------------------------------------------------

    def _load_hit(self, line, address: int, t_tags: int) -> AccessResult:
        state = line.state
        if state not in LOAD_TRANSITIONS:
            raise ProtocolViolationError(state, ProtocolEvent.LOAD,
                                         self._name)
        word = None
        image = self._image
        if image is not None and line.data is not None:
            word = line.data.get((address % image.line_size) // 4, 0)
        return AccessResult(t_tags, word, True, "local")

    def _store_hit(self, line, address: int, value: Optional[int],
                   t_tags: int) -> AccessResult:
        state = line.state
        try:
            new_state, action = STORE_TRANSITIONS[state]
        except KeyError:
            raise ProtocolViolationError(state, ProtocolEvent.STORE,
                                         self._name) from None
        if action is _NONE:                  # MM
            self._write_word(line, address, value)
            return AccessResult(t_tags, value, True, "local")
        if action is _SILENT_UPGRADE:        # M -> MM, no traffic
            line.state = new_state
            self._write_word(line, address, value)
            if TRACER.enabled:
                self._engine._trace(self._name, address & self._line_mask,
                                    "Store(silent)", state, new_state,
                                    t_tags)
            return AccessResult(t_tags, value, True, "local")
        if action is _ISSUE_GETX:            # S/O: invalidate others
            line_address = address & self._line_mask
            ready = self.upgrade(line_address, t_tags)
            line.state = new_state
            self._write_word(line, address, value)
            if TRACER.enabled:
                self._engine._trace(self._name, line_address,
                                    "Store(upgrade)", state, new_state,
                                    ready)
            return AccessResult(ready, value, True, "local")
        raise ProtocolViolationError(state, ProtocolEvent.STORE,
                                     f"unexpected action {action.value}")

    def _write_word(self, line, address: int,
                    value: Optional[int]) -> None:
        image = self._image
        if image is not None and value is not None:
            if line.data is None:
                line.data = {}
            line.data[(address % image.line_size) // 4] = value
        line.dirty = True

    # ------------------------------------------------------------------
    # protocol walks
    # ------------------------------------------------------------------

    def fetch(self, line_address: int, now: int,
              exclusive: bool) -> Tuple[int, str]:
        """The GETS/GETX miss walk; fills the line and returns
        ``(ready_tick, source)``."""
        if not self._may_cache(line_address):
            raise ProtocolViolationError(
                _STATE_I,
                ProtocolEvent.STORE if exclusive else ProtocolEvent.LOAD,
                f"{self._name} may not cache line {line_address:#x}")
        (self._getx if exclusive else self._gets).value += 1
        tracing = TRACER.enabled
        name = self._name
        req_size = self._req_size
        messages = 1
        message_bytes = req_size
        at_mc = self._req_ingress_send(
            req_size, self._req_egress_send(req_size, now))
        if tracing:
            self._span(_REQUEST, name, MEMCTRL, line_address, req_size,
                       now, at_mc)
        t_mc = at_mc + self._memctrl_ticks

        if exclusive:
            probe_row = PROBE_GETX_TRANSITIONS
            probe_event = ProtocolEvent.PROBE_GETX
        else:
            probe_row = PROBE_GETS_TRANSITIONS
            probe_event = ProtocolEvent.PROBE_GETS
        response_ticks: List[int] = []
        owner_payload = None
        owner_dirty = False
        owner_found = False
        copies_found = False

        probes = self._probes
        resp_size = self._resp_size
        data_size = self._data_size
        mc_probe_send = self._mc_probe_egress_send
        append_response = response_ticks.append

        for (target, target_name, probe_filter, probe_in_send,
             resp_eg_send, resp_in_send, data_eg_send, data_in_send,
             t_map_get, t_shift, t_tag_ticks) in self._targets:
            if not probe_filter(line_address):
                continue
            t_probe = probe_in_send(req_size, mc_probe_send(req_size, t_mc))
            if tracing:
                self._span(_REQUEST, MEMCTRL, target_name, line_address,
                           req_size, t_mc, t_probe)
            messages += 2
            message_bytes += req_size
            probes.value += 1
            t_snooped = t_probe + t_tag_ticks
            on_probe = target.on_probe
            if on_probe is not None:
                on_probe(line_address)
            probe_entry = t_map_get(line_address >> t_shift)
            supplies = False
            if probe_entry is not None:
                probe_line = probe_entry[1]
                state = probe_line.state
                try:
                    new_state, action = probe_row[state]
                except KeyError:
                    raise ProtocolViolationError(state, probe_event,
                                                 target_name) from None
                copies_found = True
                supplies = action is _SUPPLY_DATA
                if supplies:
                    owner_found = True
                    owner_dirty = probe_line.dirty
                    if probe_line.data is not None:
                        owner_payload = dict(probe_line.data)
                if new_state is _STATE_I:
                    target.cache.invalidate(line_address)
                    if target.on_back_invalidate is not None:
                        target.on_back_invalidate(line_address)
                else:
                    probe_line.state = new_state
                if tracing and (supplies or new_state is not state):
                    self._engine._trace(target_name, line_address,
                                        probe_event.value, state,
                                        new_state, t_snooped)
            if supplies:
                t_data = data_in_send(
                    data_size, data_eg_send(data_size, t_snooped))
                if tracing:
                    self._span(_DATA, target_name, name, line_address,
                               data_size, t_snooped, t_data)
                append_response(t_data)
                message_bytes += data_size
            else:
                t_response = resp_in_send(
                    resp_size, resp_eg_send(resp_size, t_snooped))
                if tracing:
                    self._span(_RESPONSE, target_name, name, line_address,
                               resp_size, t_snooped, t_response)
                append_response(t_response)
                message_bytes += resp_size

        if owner_found:
            self._owner_transfers.value += 1
            payload = owner_payload
            source = "owner"
        else:
            # speculative memory fetch (Hammer always reads memory)
            self._memory_fetches.value += 1
            dram_ready = self._dram_access(line_address, t_mc)
            t_data = self._data_ingress_send(
                data_size, self._mc_data_egress_send(data_size, dram_ready))
            if tracing:
                self._span(_DATA, MEMCTRL, name, line_address, data_size,
                           dram_ready, t_data)
            append_response(t_data)
            messages += 1
            message_bytes += data_size
            payload = (self._image.read_line(line_address)
                       if self._image is not None else None)
            source = "memory"
        self._net_messages.value += messages
        self._net_bytes.value += message_bytes

        ready = max(response_ticks) if response_ticks else t_mc
        if exclusive:
            fill_state = STORE_TRANSITIONS[_STATE_I][0]
            dirty = owner_dirty
        elif copies_found:
            fill_state = LOAD_TRANSITIONS[_STATE_I][0]
            dirty = False
        else:
            # engine policy, not a table row: Hammer's exclusive-clean
            # grant (paper Fig. 3, gem5 MOESI_hammer) — a load miss that
            # finds no other copy fills in M
            fill_state = _STATE_M
            dirty = False
        victim = self._cache_fill(line_address, fill_state, ready,
                                  payload, dirty)
        if victim is not None:
            self._engine._handle_victim(self._agent, victim[0], victim[1],
                                        ready)
        if tracing:
            self._engine._trace(name,
                                line_address,
                                "Store(fill)" if exclusive else "Load(fill)",
                                _STATE_I, fill_state, ready)
        return ready, source

    def upgrade(self, line_address: int, now: int) -> int:
        """S/O → MM: invalidate every other copy, keep local data;
        returns the tick the last ack arrives."""
        self._upgrades.value += 1
        tracing = TRACER.enabled
        name = self._name
        req_size = self._req_size
        resp_size = self._resp_size
        messages = 1
        message_bytes = req_size
        at_mc = self._req_ingress_send(
            req_size, self._req_egress_send(req_size, now))
        if tracing:
            self._span(_REQUEST, name, MEMCTRL, line_address, req_size,
                       now, at_mc)
        t_mc = at_mc + self._memctrl_ticks
        ready = t_mc
        probes = self._probes
        mc_probe_send = self._mc_probe_egress_send
        for (target, target_name, probe_filter, probe_in_send,
             resp_eg_send, resp_in_send, _data_eg_send, _data_in_send,
             t_map_get, t_shift, t_tag_ticks) in self._targets:
            if not probe_filter(line_address):
                continue
            t_probe = probe_in_send(req_size, mc_probe_send(req_size, t_mc))
            if tracing:
                self._span(_REQUEST, MEMCTRL, target_name, line_address,
                           req_size, t_mc, t_probe)
            messages += 2
            message_bytes += req_size + resp_size
            probes.value += 1
            t_snooped = t_probe + t_tag_ticks
            on_probe = target.on_probe
            if on_probe is not None:
                on_probe(line_address)
            probe_entry = t_map_get(line_address >> t_shift)
            if probe_entry is not None:
                probe_line = probe_entry[1]
                state = probe_line.state
                try:
                    new_state = PROBE_GETX_TRANSITIONS[state][0]
                except KeyError:
                    raise ProtocolViolationError(
                        state, ProtocolEvent.PROBE_GETX,
                        target_name) from None
                if new_state is _STATE_I:
                    target.cache.invalidate(line_address)
                    if target.on_back_invalidate is not None:
                        target.on_back_invalidate(line_address)
                else:
                    probe_line.state = new_state
            t_response = resp_in_send(
                resp_size, resp_eg_send(resp_size, t_snooped))
            if tracing:
                self._span(_RESPONSE, target_name, name, line_address,
                           resp_size, t_snooped, t_response)
            if t_response > ready:
                ready = t_response
        self._net_messages.value += messages
        self._net_bytes.value += message_bytes
        return ready

    def _span(self, label: str, src: str, dst: str, line_address: int,
              size: int, start: int, end: int) -> None:
        """The crossbar span ``Crossbar.send_raw`` records per message."""
        TRACER.span("network", label, start, end, track=self._network_name,
                    args={"src": src, "dst": dst, "line": line_address,
                          "bytes": size})


class PortBatchKernel:
    """The request path of a :class:`~repro.coherence.port.CoherentPort`.

    Per-line serialization through the port's MSHR file around the
    agent's :class:`CoherenceWalk`: a request to a line in flight
    merges and replays once the line settles; a request that finds the
    file full parks until an entry retires; any other request runs the
    walk, and its callback fires at the walk's ready tick.
    ``CoherentPort.__init__`` sets up the state these methods use.
    """

    def load(self, address: int, callback: Callback) -> None:
        """Issue a coherent load; *callback* fires at completion."""
        self._request(address, None, callback, False, None)

    def store(self, address: int, value: Optional[int],
              callback: Callback,
              on_accept: Optional[Callable[[], None]] = None) -> None:
        """Issue a coherent store; *callback* fires at completion.

        *on_accept* fires when the request secures an MSHR (or merges,
        or hits) — the point at which a store buffer can free its drain
        slot while the miss completes in the background.
        """
        self._request(address, value, callback, True, on_accept)

    def load_batch(self, requests: List[Tuple[int, Callback]]) -> None:
        """Issue the loads of one coalesced access (one per line).

        Stage 1 resolves every line's MSHR in-flight/merge decision in
        one pass (safe to stage: the lines of a batch are distinct, and
        processing one line allocates only its own entry, while entries
        retire only in completion events); stage 2 runs each non-merged
        request in order, preserving the per-request link booking and
        per-bank access sequences.
        """
        request = self._request
        if len(requests) == 1:
            address, callback = requests[0]
            request(address, None, callback, False, None)
            return
        line_mask = self._line_mask
        lines = [address & line_mask for address, _callback in requests]
        inflight = self.mshrs.probe_batch(lines)
        merges = self._mshr_merges
        entries = self._mshr_entries
        for (address, callback), line_address, merged in zip(
                requests, lines, inflight):
            if merged:
                merges.value += 1
                entries[line_address].waiters.append(
                    lambda address=address, callback=callback:
                    request(address, None, callback, False, None))
            else:
                request(address, None, callback, False, None)

    def drain_waiting(self) -> None:
        """Re-issue parked requests, in FIFO order, while MSHR entries
        are free."""
        waiting = self._waiting
        entries = self._mshr_entries
        num_mshrs = self._num_mshrs
        request = self._request
        while waiting and len(entries) < num_mshrs:
            request(*waiting.popleft())

    def _request(self, address: int, value: Optional[int],
                 callback: Callback, is_store: bool,
                 on_accept: Optional[Callable[[], None]]) -> None:
        line_address = address & self._line_mask
        entry = self._mshr_entries.get(line_address)
        if entry is not None:
            # merge: replay the whole request once the line settles —
            # by then it is (usually) resident and completes locally.
            # Acceptance fires on a fresh event, which keeps requests
            # non-reentrant (a store buffer's handler issues the next
            # store into this same port).
            if on_accept is not None:
                self._post_after(0, on_accept)
            self._mshr_merges.value += 1
            entry.waiters.append(
                lambda: self._request(address, value, callback, is_store,
                                      None))
            return
        if len(self._mshr_entries) >= self._num_mshrs:
            # structural stall: park until an entry retires (no polling —
            # a full file would otherwise cause a retry storm)
            self._waiting.append(
                (address, value, callback, is_store, on_accept))
            return
        if on_accept is not None:
            self._post_after(0, on_accept)

        now = self.queue.current_tick
        result = self._access(address, value, is_store, now)
        if result.hit:
            # no fill in flight; deliver at the access's ready tick
            self._post_at(result.ready_tick, partial(callback, result))
            return

        mshrs = self.mshrs
        mshrs.allocate(line_address, now, is_write=is_store)
        waiting = self._waiting
        drain = self.drain_waiting

        def _complete() -> None:
            waiters = mshrs.complete(line_address)
            callback(result)
            for waiter in waiters:
                waiter()
            if waiting:
                drain()

        self._post_at(result.ready_tick, _complete)

    def _resolve_walk(self, address: int, value: Optional[int],
                      is_store: bool, now: int) -> AccessResult:
        """First access: bind the agent's walk, then run it.

        Deferred to the first request because ports are built before
        every agent is registered with the engine.
        """
        self._access = self.engine.walk(self.agent_name).access
        return self._access(address, value, is_store, now)
