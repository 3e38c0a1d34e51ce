"""The batched coherence/memory kernel.

This module flattens *what the hot event callbacks do*.  In the layered
reference path one coherent request crosses roughly a dozen Python
frames —

    CoherentPort._request → HammerSystem.load → _fetch → _send
    → Network.send_raw → Link.send (×2 per message) → DramModel.access
    → SetAssociativeCache.lookup / fill

— and every frame re-derives routes, wire sizes, tag latencies, and
transition rows that are constants for the (port, agent) pair.  A
:class:`PortBatchKernel` precomputes all of that once and resolves the
whole request as straight-line integer code:

* **MSHR in-flight/merge checks** — one staged mask per coalesced batch
  (:meth:`~repro.mem.mshr.MSHRFile.probe_batch`), dict probes per
  single request;
* **Hammer state transitions** — dense per-event ``state-index →
  action-index`` rows derived from the declarative protocol table
  (:mod:`repro.coherence.protocol_table`), no enum-tuple hashing;
* **DRAM bank/row timing** — a bound
  :meth:`~repro.mem.dram.DramModel.access`, called directly;
* **link epoch booking** — cached ``(egress, ingress, size)`` routes
  booked directly, with :meth:`~repro.interconnect.link.Link.send_run`
  batching same-link fan-out runs (probe broadcasts).

Bit-identity contract: the kernel performs *exactly* the state changes,
statistics updates, link bookings, DRAM accesses, and event postings of
the reference path, in the same order, with the same integer arithmetic.
``REPRO_BATCH_KERNEL=0`` keeps the layered path; the equivalence tests
diff the two.  Every request of an untraced run goes through the fused
walk, including merge replays and requests parked on a full MSHR file
(:meth:`PortBatchKernel.drain_waiting`).  Only while the telemetry
tracer is live does the kernel delegate to
:meth:`CoherentPort._request`, so trace streams stay identical.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Tuple

from repro.coherence.hammer import MEMCTRL, AccessResult
from repro.coherence.protocol_table import (
    A_ISSUE_GETX,
    A_NONE,
    A_SILENT_UPGRADE,
    A_SUPPLY_DATA,
    LOAD_ACTION_ROW,
    PROBE_GETS_ACTION_ROW,
    PROBE_GETS_NEXT_ROW,
    PROBE_GETX_ACTION_ROW,
    STATE_INDEX,
    STATE_BY_INDEX,
    STORE_ACTION_ROW,
    ProtocolEvent,
    ProtocolViolationError,
)
from repro.coherence.states import HammerState
from repro.interconnect.message import MessageClass
from repro.telemetry.tracer import TRACER

Callback = Callable[[AccessResult], None]

_STATE_S = HammerState.S
_STATE_M = HammerState.M
_STATE_MM = HammerState.MM
_STATE_I = HammerState.I


class PortBatchKernel:
    """Fused request processing for one :class:`CoherentPort`.

    Construction is lazy: the first request resolves the per-agent
    constants (routes, transition rows, cache internals), because ports
    can be built before every agent is registered with the engine.
    """

    def __init__(self, port) -> None:
        self._port = port
        self._ready = False

    # ------------------------------------------------------------------
    # lazy setup
    # ------------------------------------------------------------------

    def _setup(self) -> None:
        port = self._port
        engine = port.engine
        agent = engine.agents[port.agent_name]
        network = engine.network
        cache = agent.cache

        self._engine = engine
        self._agent = agent
        self._queue = port.queue
        self._post_at = port.queue.post_at
        self._post_after = port.queue.post_after
        self._mshrs = port.mshrs
        self._mshr_entries = port.mshrs._entries
        self._mshr_merges = port.mshrs._merges
        self._num_mshrs = port.mshrs.num_entries
        self._waiting = port._waiting
        self._drain_parked = port._drain_waiting

        self._line_mask = port._line_mask
        self._cache = cache
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
        name = agent.name
        req_eg, req_in, req_size = network.route(
            name, MEMCTRL, MessageClass.REQUEST)
        self._req_egress_send = req_eg.send
        self._req_ingress_send = req_in.send
        self._req_size = req_size
        mc_eg, _first_in, _size = network.route(
            MEMCTRL, name, MessageClass.REQUEST)
        self._mc_probe_egress = mc_eg
        self._mc_probe_egress_send = mc_eg.send
        data_eg, data_in, data_size = network.route(
            MEMCTRL, name, MessageClass.DATA)
        self._mc_data_egress_send = data_eg.send
        self._data_ingress_send = data_in.send
        self._data_size = data_size
        self._net_messages, self._net_bytes = network.message_counters

        # per-target probe records, in agent registration order (the
        # order _probe_targets iterates); empty when broadcasting is off
        self._targets: List[tuple] = []
        if engine.broadcast_enabled:
            for target in engine.agents.values():
                if target is agent:
                    continue
                _eg, probe_in, _size = network.route(
                    MEMCTRL, target.name, MessageClass.REQUEST)
                resp_eg, resp_in, resp_size = network.route(
                    target.name, name, MessageClass.RESPONSE)
                tdata_eg, tdata_in, _tdata_size = network.route(
                    target.name, name, MessageClass.DATA)
                self._targets.append((
                    target,
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
        self._resp_size = MessageClass.RESPONSE.size_bytes(
            network.line_size)
        self._ready = True

    # ------------------------------------------------------------------
    # entry points (installed over CoherentPort.load/store)
    # ------------------------------------------------------------------

    def load(self, address: int, callback: Callback) -> None:
        """Fused coherent load; mirrors ``CoherentPort.load`` exactly."""
        if not self._ready:
            self._setup()
        if TRACER.enabled:
            self._port._request(address, None, callback, is_store=False)
            return
        self._request_fused(address, None, callback, False, None)

    def store(self, address: int, value: Optional[int],
              callback: Callback,
              on_accept: Optional[Callable[[], None]] = None) -> None:
        """Fused coherent store; mirrors ``CoherentPort.store`` exactly."""
        if not self._ready:
            self._setup()
        if TRACER.enabled:
            self._port._request(address, value, callback, is_store=True,
                                on_accept=on_accept)
            return
        self._request_fused(address, value, callback, True, on_accept)

    def load_batch(self, requests: List[Tuple[int, Callback]]) -> None:
        """Issue the loads of one coalesced access as a message batch.

        Stage 1 resolves every line's MSHR in-flight/merge decision in
        one pass (safe to stage: the lines of a batch are distinct, so
        processing one line never changes another's in-flight status);
        stage 2 runs each non-merged request through the fused walk in
        order, preserving the reference path's per-link booking and
        per-bank access sequences.
        """
        if not self._ready:
            self._setup()
        if TRACER.enabled:
            request = self._port._request
            for address, callback in requests:
                request(address, None, callback, is_store=False)
            return
        if len(requests) == 1:
            address, callback = requests[0]
            self._request_fused(address, None, callback, False, None)
            return
        line_mask = self._line_mask
        lines = [address & line_mask for address, _callback in requests]
        inflight = self._mshrs.probe_batch(lines)
        merges = self._mshr_merges
        entries_get = self._mshr_entries.get
        replay = self._replay
        for (address, callback), line_address, merged in zip(
                requests, lines, inflight):
            if merged:
                entry = entries_get(line_address)
                if entry is not None:
                    merges.value += 1
                    entry.waiters.append(
                        lambda address=address, callback=callback:
                        replay(address, None, callback, False))
                    continue
                # raced with a completion posted earlier this batch —
                # cannot happen (completions are events), but stay total
                self._request_fused(address, None, callback, False, None)
                continue
            self._request_fused(address, None, callback, False, None)

    def _replay(self, address: int, value: Optional[int],
                callback: Callback, is_store: bool) -> None:
        """Re-issue a merged request once its line settles.

        The fused twin of the reference path's replay lambda (which
        re-enters ``_request``); the observation-fallback condition is
        re-checked because tracing can start between merge and fill.
        """
        if TRACER.enabled:
            self._port._request(address, value, callback, is_store)
            return
        self._request_fused(address, value, callback, is_store, None)

    def drain_waiting(self) -> None:
        """Re-issue parked requests through the fused walk, in FIFO
        order, while MSHR entries are free (``CoherentPort._drain_waiting``
        without the layered re-entry)."""
        if not self._ready:
            self._setup()
        waiting = self._waiting
        entries = self._mshr_entries
        num_mshrs = self._num_mshrs
        request = self._request_fused
        while waiting and len(entries) < num_mshrs:
            address, value, callback, is_store, on_accept = \
                waiting.popleft()
            request(address, value, callback, is_store, on_accept)

    # ------------------------------------------------------------------
    # the fused request
    # ------------------------------------------------------------------

    def _request_fused(self, address: int, value: Optional[int],
                       callback: Callback, is_store: bool,
                       on_accept: Optional[Callable[[], None]]) -> None:
        line_address = address & self._line_mask
        queue = self._queue
        now = queue.current_tick

        entry = self._mshr_entries.get(line_address)
        if entry is not None:
            # merge: replay the whole request once the line settles
            if on_accept is not None:
                self._post_after(0, on_accept)
            self._mshr_merges.value += 1
            entry.waiters.append(
                lambda: self._replay(address, value, callback, is_store))
            return
        if len(self._mshr_entries) >= self._num_mshrs:
            # structural stall: park until an entry retires
            self._waiting.append(
                (address, value, callback, is_store, on_accept))
            return
        if on_accept is not None:
            self._post_after(0, on_accept)

        t_tags = now + self._tag_ticks
        local_line = address >> self._line_shift
        hit_entry = self._line_map_get(local_line)

        # --- demand-access statistics, exactly as cache.lookup ---------
        self._c_accesses.value += 1
        if hit_entry is not None:
            way, line = hit_entry
            self._policy_on_access(local_line & self._index_mask, way)
            self._c_hits.value += 1
            demand_seen = self._demand_seen
            if line_address not in demand_seen:
                demand_seen.add(line_address)
                self._c_first_touch.value += 1
            result = (self._store_hit(line, address, value, t_tags)
                      if is_store
                      else self._load_hit(line, address, t_tags))
            self._post_at(result.ready_tick, partial(callback, result))
            return

        self._c_misses.value += 1
        if line_address not in self._touched:
            self._c_compulsory.value += 1
        self._demand_seen.add(line_address)

        # --- the miss walk ---------------------------------------------
        ready, source = self._fetch_fused(line_address, t_tags, is_store)
        if is_store:
            filled = self._line_map_get(local_line)[1]
            image = self._image
            if image is not None and value is not None:
                if filled.data is None:
                    filled.data = {}
                filled.data[(address % image.line_size) // 4] = value
            filled.dirty = True
            result = AccessResult(ready, value, False, source)
        else:
            word = None
            image = self._image
            if image is not None:
                filled = self._line_map_get(local_line)[1]
                if filled.data is not None:
                    word = filled.data.get(
                        (address % image.line_size) // 4, 0)
                else:
                    word = None
            result = AccessResult(ready, word, False, source)

        entry = self._mshrs.allocate(line_address, now, is_write=is_store)
        assert entry is not None  # guarded by the is_full check above
        mshrs = self._mshrs
        waiting = self._waiting
        drain = self._drain_parked

        def _complete() -> None:
            waiters = mshrs.complete(line_address)
            callback(result)
            for waiter in waiters:
                waiter()
            if waiting:
                drain()

        self._post_at(ready, _complete)

    # ------------------------------------------------------------------
    # hit resolution (table-driven)
    # ------------------------------------------------------------------

    def _load_hit(self, line, address: int, t_tags: int) -> AccessResult:
        state = line.state
        if LOAD_ACTION_ROW[STATE_INDEX[state]] < 0:
            raise ProtocolViolationError(state, ProtocolEvent.LOAD,
                                         self._agent.name)
        word = None
        image = self._image
        if image is not None and line.data is not None:
            word = line.data.get((address % image.line_size) // 4, 0)
        return AccessResult(t_tags, word, True, "local")

    def _store_hit(self, line, address: int, value: Optional[int],
                   t_tags: int) -> AccessResult:
        state = line.state
        action = STORE_ACTION_ROW[STATE_INDEX[state]]
        if action < 0:
            raise ProtocolViolationError(state, ProtocolEvent.STORE,
                                         self._agent.name)
        if action == A_NONE:                 # MM
            self._write_word(line, address, value)
            return AccessResult(t_tags, value, True, "local")
        if action == A_SILENT_UPGRADE:       # M -> MM, no traffic
            line.state = _STATE_MM
            self._write_word(line, address, value)
            return AccessResult(t_tags, value, True, "local")
        if action == A_ISSUE_GETX:           # S/O: invalidate others
            line_address = address & self._line_mask
            ready = self._upgrade_fused(line_address, t_tags)
            line.state = _STATE_MM
            self._write_word(line, address, value)
            return AccessResult(ready, value, True, "local")
        raise ProtocolViolationError(state, ProtocolEvent.STORE,
                                     f"unexpected action index {action}")

    def _write_word(self, line, address: int,
                    value: Optional[int]) -> None:
        image = self._image
        if image is not None and value is not None:
            if line.data is None:
                line.data = {}
            line.data[(address % image.line_size) // 4] = value
        line.dirty = True

    # ------------------------------------------------------------------
    # walks
    # ------------------------------------------------------------------

    def _fetch_fused(self, line_address: int, now: int,
                     exclusive: bool) -> Tuple[int, str]:
        """The GETS/GETX miss walk, flattened; fills the line."""
        if not self._may_cache(line_address):
            raise ProtocolViolationError(
                _STATE_I,
                ProtocolEvent.STORE if exclusive else ProtocolEvent.LOAD,
                f"{self._agent.name} may not cache line {line_address:#x}")
        (self._getx if exclusive else self._gets).value += 1
        messages = 1
        message_bytes = self._req_size
        at_switch = self._req_egress_send(self._req_size, now)
        t_mc = (self._req_ingress_send(self._req_size, at_switch)
                + self._memctrl_ticks)

        probe_row = (PROBE_GETX_ACTION_ROW if exclusive
                     else PROBE_GETS_ACTION_ROW)
        probe_event = (ProtocolEvent.PROBE_GETX if exclusive
                       else ProtocolEvent.PROBE_GETS)
        response_ticks: List[int] = []
        owner_payload = None
        owner_dirty = False
        owner_found = False
        sharers_found = False

        agent = self._agent
        agent_name = agent.name
        probes = self._probes
        resp_size = self._resp_size
        data_size = self._data_size
        mc_probe_send = self._mc_probe_egress_send
        append_response = response_ticks.append

        for (target, probe_filter, probe_in_send, resp_eg_send,
             resp_in_send, data_eg_send, data_in_send, t_map_get,
             t_shift, t_tag_ticks) in self._targets:
            if not probe_filter(line_address):
                continue
            at_switch = mc_probe_send(self._req_size, t_mc)
            t_probe = probe_in_send(self._req_size, at_switch)
            messages += 1
            message_bytes += self._req_size
            probes.value += 1
            t_snooped = t_probe + t_tag_ticks
            on_probe = target.on_probe
            if on_probe is not None:
                on_probe(line_address)
            probe_entry = t_map_get(line_address >> t_shift)
            if probe_entry is None:
                append_response(resp_in_send(
                    resp_size, resp_eg_send(resp_size, t_snooped)))
                messages += 1
                message_bytes += resp_size
                continue
            probe_line = probe_entry[1]
            state = probe_line.state
            state_index = STATE_INDEX[state]
            action = probe_row[state_index]
            if action < 0:
                raise ProtocolViolationError(state, probe_event,
                                             target.name)
            if action == A_SUPPLY_DATA:
                owner_found = True
                owner_dirty = probe_line.dirty
                if probe_line.data is not None:
                    owner_payload = dict(probe_line.data)
                if exclusive:
                    removed = target.cache.invalidate(line_address)
                    assert removed is not None
                    if target.on_back_invalidate is not None:
                        target.on_back_invalidate(line_address)
                else:
                    probe_line.state = STATE_BY_INDEX[
                        PROBE_GETS_NEXT_ROW[state_index]]  # MM/M -> O
                append_response(data_in_send(
                    data_size, data_eg_send(data_size, t_snooped)))
                messages += 1
                message_bytes += data_size
            else:  # SEND_ACK (I stays I; S acks, invalidating on GETX)
                if state is _STATE_S:
                    sharers_found = True
                    if exclusive:
                        target.cache.invalidate(line_address)
                        if target.on_back_invalidate is not None:
                            target.on_back_invalidate(line_address)
                append_response(resp_in_send(
                    resp_size, resp_eg_send(resp_size, t_snooped)))
                messages += 1
                message_bytes += resp_size

        if owner_found:
            self._owner_transfers.value += 1
            payload = owner_payload
            source = "owner"
        else:
            # speculative memory fetch (Hammer always reads memory)
            self._memory_fetches.value += 1
            dram_ready = self._dram_access(line_address, t_mc)
            append_response(self._data_ingress_send(
                data_size, self._mc_data_egress_send(data_size,
                                                     dram_ready)))
            messages += 1
            message_bytes += data_size
            payload = (self._image.read_line(line_address)
                       if self._image is not None else None)
            source = "memory"
        self._net_messages.value += messages
        self._net_bytes.value += message_bytes

        ready = max(response_ticks) if response_ticks else t_mc
        if exclusive:
            fill_state = _STATE_MM
            dirty = owner_dirty
        elif owner_found or sharers_found:
            fill_state = _STATE_S
            dirty = False
        else:
            fill_state = _STATE_M  # exclusive-clean grant
            dirty = False
        victim = self._cache_fill(line_address, fill_state, ready,
                                  payload, dirty)
        if victim is not None:
            self._engine._handle_victim(agent, victim[0], victim[1],
                                        ready)
        return ready, source

    def _upgrade_fused(self, line_address: int, now: int) -> int:
        """S/O → MM: invalidate every other copy, keep local data."""
        self._upgrades.value += 1
        messages = 1
        message_bytes = self._req_size
        at_switch = self._req_egress_send(self._req_size, now)
        t_mc = (self._req_ingress_send(self._req_size, at_switch)
                + self._memctrl_ticks)
        response_ticks = [t_mc]
        append_response = response_ticks.append
        probes = self._probes
        resp_size = self._resp_size
        mc_probe_send = self._mc_probe_egress_send
        for (target, probe_filter, probe_in_send, resp_eg_send,
             resp_in_send, _data_eg_send, _data_in_send, t_map_get,
             t_shift, t_tag_ticks) in self._targets:
            if not probe_filter(line_address):
                continue
            at_switch = mc_probe_send(self._req_size, t_mc)
            t_probe = probe_in_send(self._req_size, at_switch)
            messages += 1
            message_bytes += self._req_size
            probes.value += 1
            t_snooped = t_probe + t_tag_ticks
            on_probe = target.on_probe
            if on_probe is not None:
                on_probe(line_address)
            probe_entry = t_map_get(line_address >> t_shift)
            if probe_entry is not None:
                state = probe_entry[1].state
                if PROBE_GETX_ACTION_ROW[STATE_INDEX[state]] < 0:
                    raise ProtocolViolationError(
                        state, ProtocolEvent.PROBE_GETX, target.name)
                target.cache.invalidate(line_address)
                if target.on_back_invalidate is not None:
                    target.on_back_invalidate(line_address)
            append_response(resp_in_send(
                resp_size, resp_eg_send(resp_size, t_snooped)))
            messages += 1
            message_bytes += resp_size
        self._net_messages.value += messages
        self._net_bytes.value += message_bytes
        return max(response_ticks)
