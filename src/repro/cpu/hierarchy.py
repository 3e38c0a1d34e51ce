"""The CPU memory subsystem: a write-back L1D over the coherent L2 port.

Routing (paper Fig. 2, left):

* ordinary loads/stores go L1D → coherent L2.  The L1D is write-back,
  write-allocate (an Opteron-style L1): stores that hit retire in the
  L1, and dirtier-than-L2 data is flushed down whenever the L2 is
  probed or evicts the line (the ``on_probe`` / ``pre_victim`` hooks),
  preserving coherence visibility;
* stores whose translation carries the TLB's direct-store signal are
  *forwarded*: they bypass the whole local hierarchy and travel the
  dedicated network to the GPU L2 (``engine.remote_store``);
* loads from the direct-store window never allocate locally ("can never
  be cached on the CPU side"): they are uncached reads serviced by the
  home GPU L2 slice or memory.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.coherence.hammer import AccessResult, HammerSystem
from repro.coherence.port import CoherentPort
from repro.engine.clock import ClockDomain
from repro.engine.event import EventQueue
from repro.mem.cache import SetAssociativeCache
from repro.utils.statistics import StatsRegistry
from repro.vm.mmu import Translation

Callback = Callable[[AccessResult], None]

#: returns the GPU L2 slice agent name that homes a physical line
SliceRouter = Callable[[int], str]


class CpuMemorySubsystem:
    """L1D + coherent port + the direct-store forwarding path."""

    def __init__(self, name: str, queue: EventQueue, clock: ClockDomain,
                 l1d: SetAssociativeCache, port: CoherentPort,
                 engine: HammerSystem, slice_router: SliceRouter,
                 l1_latency_cycles: int = 2,
                 forward_enabled: bool = False) -> None:
        self.name = name
        self.queue = queue
        self.clock = clock
        self.l1d = l1d
        self.port = port
        self.engine = engine
        self.slice_router = slice_router
        self.l1_latency_cycles = l1_latency_cycles
        #: direct-store forwarding switched on (mode is DS / DS-only /
        #: hybrid); with it off the TLB signal is ignored (pure CCSM).
        self.forward_enabled = forward_enabled
        self.stats = StatsRegistry(name)
        self._line_mask = ~(engine.line_size - 1)
        self._agent_name = port.agent_name
        self._l1_line_get = l1d._line_map.get
        self._l1_line_shift = l1d.layout.line_shift
        self._post_at = queue.post_at
        self._period_ticks = clock.period_ticks
        #: L1 latency in ticks (a page-table walk adds to it)
        self._l1_hit_ticks = l1_latency_cycles * clock.period_ticks
        #: slice name -> ticks from a forward's acceptance to its ready
        #: tick (the slice's tag lookup plus the dedicated network's
        #: flight latency), resolved on each slice's first forward: the
        #: slices and the network attach after this subsystem is built
        self._accept_offsets: Dict[str, int] = {}
        #: the local L2 array's probe, resolved on first install (the
        #: agent registers with the engine after the port is built)
        self._l2_probe: Optional[Callable] = None
        self._loads = self.stats.counter("loads")
        self._stores = self.stats.counter("stores")
        self._forwarded = self.stats.counter(
            "forwarded_stores", "stores sent over the dedicated network")
        self._uncached = self.stats.counter("uncached_loads")

    # ------------------------------------------------------------------

    def invalidate_l1(self, line_address: int) -> None:
        """Back-invalidation hook: the coherent L2 lost *line_address*."""
        self.l1d.invalidate(line_address)

    def flush_l1_to_l2(self, line_address: int) -> None:
        """Probe/eviction hook: push dirty L1 words down into the L2 line.

        Called by the coherence engine *before* it reads the L2 line on a
        probe, and by the L2 array before it copies an eviction victim —
        so snoopers and writebacks always observe the newest data.
        """
        # every remote store calls this hook: probe the L1D line map
        # in place
        l1_entry = self._l1_line_get(line_address >> self._l1_line_shift)
        if l1_entry is None or not l1_entry[1].dirty:
            return
        l1_line = l1_entry[1]
        l2_line = self.port.engine.agents[self.port.agent_name].cache.probe(
            line_address)
        if l2_line is None:
            return
        if l1_line.data is not None:
            if l2_line.data is None:
                l2_line.data = {}
            l2_line.data.update(l1_line.data)
        l2_line.dirty = True
        l1_line.dirty = False

    # ------------------------------------------------------------------
    # loads
    # ------------------------------------------------------------------

    def load(self, translation: Translation, callback: Callback) -> None:
        """Issue one CPU load; *callback* fires when data is available."""
        self._loads.increment()
        now = self.queue.current_tick
        t_l1 = (now + self._l1_hit_ticks
                + translation.walk_cycles * self._period_ticks)
        if translation.ds_window and self.forward_enabled:
            # window data: uncached read from the home
            self._uncached.increment()
            result = self.engine.uncached_load(
                self.port.agent_name, translation.physical_address, t_l1)
            self.queue.post_at(result.ready_tick,
                               partial(callback, result))
            return
        line = self.l1d.lookup(translation.physical_address)
        if line is not None:
            word = None
            if self.engine.image is not None and line.data is not None:
                offset = self.engine.image.word_offset_in_line(
                    translation.physical_address)
                word = line.data.get(offset, 0)
            result = AccessResult(t_l1, word, True, "local")
            self.queue.post_at(t_l1, partial(callback, result))
            return

        def _on_fill(result: AccessResult) -> None:
            self._install_l1(translation.physical_address)
            callback(result)

        self.port.load(translation.physical_address, _on_fill)

    def _install_l1(self, physical_address: int) -> None:
        """Copy the (now-resident) L2 line up into the L1D."""
        if self._l1_line_get(physical_address >> self._l1_line_shift) \
                is not None:
            return  # installed by an earlier access to the line
        l2_probe = self._l2_probe
        if l2_probe is None:
            l2_probe = self._l2_probe = self.port.engine.agents[
                self.port.agent_name].cache.probe
        l2_line = l2_probe(physical_address)
        if l2_line is None:
            return  # evicted again already; skip the install
        data = dict(l2_line.data) if l2_line.data is not None else None
        self.l1d.fill(physical_address, "V", self.queue.current_tick, data)

    # ------------------------------------------------------------------
    # stores
    # ------------------------------------------------------------------

    def store(self, translation: Translation, value: Optional[int],
              callback: Callback,
              extra_words: Optional[List[Tuple[int, Optional[int]]]] = None,
              on_accept: Optional[Callable[[], None]] = None) -> None:
        """Drain one (possibly write-combined) store from the store buffer.

        *extra_words* holds further same-line (virtual_address, value)
        pairs the store buffer combined with this one.  *on_accept*
        fires when the memory system takes ownership of the store (MSHR
        slot, or the dedicated link finishes serialising the forward) —
        the store buffer's drain slot frees then; *callback* fires when
        the store is globally performed.
        """
        n_words = 1 + len(extra_words) if extra_words else 1
        self._stores.value += n_words
        now = self.queue.current_tick
        physical_address = translation.physical_address
        # same line => same page: translate extras by offset
        if extra_words:
            base = physical_address - translation.virtual_address
            physical_extras = [(base + va, word_value)
                               for va, word_value in extra_words]
        else:
            physical_extras = ()
        if translation.direct_store and self.forward_enabled:
            self._forwarded.value += n_words
            slice_name = self.slice_router(physical_address & self._line_mask)
            result = self.engine.remote_store(
                self._agent_name, slice_name, physical_address, value, now,
                physical_extras)
            ready = result.ready_tick
            if on_accept is not None:
                # the drain slot is held until the dedicated link has
                # serialised the message (its backpressure point): the
                # remote tag lookup + flight latency happen beyond it
                offset = self._accept_offsets.get(slice_name)
                if offset is None:
                    offset = self._accept_offset(slice_name)
                accept_tick = ready - offset
                self._post_at(accept_tick if accept_tick > now else now,
                              on_accept)
            self._post_at(ready, partial(callback, result))
            return
        # write-back, write-allocate: a hit retires in the L1
        t_l1 = (now + self._l1_hit_ticks
                + translation.walk_cycles * self._period_ticks)
        line = self.l1d.lookup(physical_address)
        if line is not None:
            self._write_l1_word(line, physical_address, value)
            for word_pa, word_value in physical_extras:
                self._write_l1_word(line, word_pa, word_value)
            result = AccessResult(t_l1, value, True, "local")
            if on_accept is not None:
                self._post_at(t_l1, on_accept)
            self._post_at(t_l1, partial(callback, result))
            return

        def _on_filled(result: AccessResult) -> None:
            # the L2 now holds the line in MM with the first word written;
            # merge the combined words, then allocate the L1 copy so
            # subsequent stores hit locally
            if physical_extras:
                l2_line = self.engine.agents[self._agent_name].cache.probe(
                    physical_address)
                if l2_line is not None:
                    for word_pa, word_value in physical_extras:
                        self.engine._write_word(l2_line, word_pa, word_value)
            self._install_l1(physical_address)
            callback(result)

        self.port.store(physical_address, value, _on_filled,
                        on_accept=on_accept)

    def _accept_offset(self, slice_name: str) -> int:
        """Resolve and cache a slice's acceptance offset (see __init__)."""
        ds_network = self.engine.ds_network
        flight = (0 if ds_network is None else
                  ds_network.clock.cycles_to_ticks(ds_network.latency_cycles))
        offset = self.engine.agents[slice_name].tag_ticks + flight
        self._accept_offsets[slice_name] = offset
        return offset

    def _write_l1_word(self, line, physical_address: int,
                       value: Optional[int]) -> None:
        if self.engine.image is not None and value is not None:
            offset = self.engine.image.word_offset_in_line(physical_address)
            if line.data is None:
                line.data = {}
            line.data[offset] = value
        line.dirty = True
