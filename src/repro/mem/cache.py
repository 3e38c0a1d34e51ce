"""A generic set-associative cache array.

This is the tag/data store only — *no* protocol logic.  Coherence
controllers own a ``SetAssociativeCache`` and decide what states to put in
its lines; private GPU L1s use it directly with a boolean-ish state.

The array tracks the statistics the paper's evaluation needs: demand
accesses, hits, misses, and *compulsory* misses (first-ever touch of a
line address), because §IV specifically measures the compulsory-miss
reduction of direct store.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.mem.address import AddressLayout
from repro.mem.cacheline import CacheLine
from repro.mem.replacement import ReplacementPolicy, make_replacement_policy
from repro.telemetry.tracer import TRACER
from repro.utils.statistics import StatsRegistry


class SetAssociativeCache:
    """Tag/data array with pluggable replacement.

    Args:
        name: instance name for statistics (e.g. ``"gpu.l2.slice0"``).
        size_bytes: total capacity.
        ways: associativity.
        line_size: block size in bytes (128 throughout the paper).
        replacement: policy name accepted by
            :func:`~repro.mem.replacement.make_replacement_policy`.
    """

    def __init__(self, name: str, size_bytes: int, ways: int,
                 line_size: int = 128, replacement: str = "lru",
                 interleave: int = 1, interleave_offset: int = 0) -> None:
        if size_bytes % (ways * line_size) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by "
                f"ways*line ({ways}*{line_size})")
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_size = line_size
        num_sets = size_bytes // (ways * line_size)
        self.layout = AddressLayout(line_size, num_sets, interleave,
                                    interleave_offset)
        self.num_sets = num_sets
        # Rows of CacheLine objects are materialised on first fill; big
        # sparsely-used arrays (a 4 MiB L2 slice in a short benchmark)
        # never pay for untouched sets.
        self._sets: List[Optional[List[CacheLine]]] = [None] * num_sets
        #: local line number -> (way, line) for every valid line; the
        #: O(1) replacement for scanning a set's ways on lookup/probe
        self._line_map: Dict[int, Tuple[int, CacheLine]] = {}
        #: per-set bitmask of occupied ways (bit w set = way w valid)
        self._valid_masks: List[int] = [0] * num_sets
        self._full_mask = (1 << ways) - 1
        self.policy: ReplacementPolicy = make_replacement_policy(
            replacement, num_sets, ways)
        #: optional hook fired with (line_address, line) just before a
        #: valid line is evicted by a fill — an upper cache level uses it
        #: to flush newer (dirtier) data down before the copy is taken
        self.pre_victim: Optional[Callable[[int, CacheLine], None]] = None
        self.stats = StatsRegistry(name)
        self._accesses = self.stats.counter("accesses", "demand accesses")
        self._hits = self.stats.counter("hits", "demand hits")
        self._misses = self.stats.counter("misses", "demand misses")
        self._compulsory = self.stats.counter(
            "compulsory_misses", "first-touch (cold) misses")
        self._evictions = self.stats.counter("evictions", "lines evicted")
        self._writebacks = self.stats.counter(
            "writebacks", "dirty lines evicted")
        self._first_touch_hits = self.stats.counter(
            "first_touch_hits",
            "demand hits on lines never demand-accessed before "
            "(data pushed in by direct store or prefetch)")
        #: line addresses ever resident — classifies compulsory misses
        self._touched: Set[int] = set()
        #: line addresses ever *demand-accessed* — classifies first-touch
        #: hits (the direct-store win: pushed data hit on first use)
        self._demand_seen: Set[int] = set()

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def probe(self, address: int) -> Optional[CacheLine]:
        """Tag match with **no** side effects (no stats, no recency)."""
        entry = self._line_map.get(address >> self.layout.line_shift)
        return entry[1] if entry is not None else None

    def probe_batch(self, addresses: Sequence[int]
                    ) -> List[Optional[CacheLine]]:
        """Side-effect-free tag match for a batch of addresses.

        The result list is positionally parallel to *addresses*.
        """
        line_shift = self.layout.line_shift
        line_map = self._line_map
        out: List[Optional[CacheLine]] = []
        for address in addresses:
            entry = line_map.get(address >> line_shift)
            out.append(entry[1] if entry is not None else None)
        return out

    def lookup_batch(self, addresses: Sequence[int],
                     record_stats: bool = True
                     ) -> List[Optional[CacheLine]]:
        """Demand access for a batch of addresses.

        Statistics (accesses/hits/misses/compulsory) and replacement
        recency end up identical to calling :meth:`lookup` per address
        in order; only the address decomposition and counter updates are
        batched.
        """
        layout = self.layout
        line_shift = layout.line_shift
        index_mask = layout.index_mask
        line_map = self._line_map
        policy_on_access = self.policy.on_access
        touched = self._touched
        demand_seen = self._demand_seen
        tracing = record_stats and TRACER.enabled
        line_mask = layout.line_mask
        hits = misses = compulsory = first_touch = 0
        out: List[Optional[CacheLine]] = []
        for address in addresses:
            local_line = address >> line_shift
            entry = line_map.get(local_line)
            if entry is None:
                hit = None
                misses += 1
                if record_stats:
                    line_addr = address & line_mask
                    is_compulsory = line_addr not in touched
                    if is_compulsory:
                        compulsory += 1
                    demand_seen.add(line_addr)
                    if tracing:
                        TRACER.instant(
                            "cache", "miss", TRACER.now(), track=self.name,
                            args={"line": line_addr,
                                  "compulsory": is_compulsory})
            else:
                way, hit = entry
                policy_on_access(local_line & index_mask, way)
                hits += 1
                if record_stats:
                    line_addr = address & line_mask
                    if line_addr not in demand_seen:
                        demand_seen.add(line_addr)
                        first_touch += 1
                        if tracing:
                            TRACER.instant(
                                "cache", "first_touch_hit", TRACER.now(),
                                track=self.name, args={"line": line_addr})
            out.append(hit)
        if record_stats:
            self._accesses.value += len(out)
            self._hits.value += hits
            self._misses.value += misses
            self._compulsory.value += compulsory
            self._first_touch_hits.value += first_touch
        return out

    def lookup(self, address: int, record_stats: bool = True
               ) -> Optional[CacheLine]:
        """Demand access: updates recency and hit/miss statistics.

        Returns the hit line, or ``None`` on a miss (the caller then
        issues a fill).  A miss on a never-before-seen line address is
        counted as compulsory.
        """
        layout = self.layout
        local_line = address >> layout.line_shift
        if record_stats:
            self._accesses.value += 1
        entry = self._line_map.get(local_line)
        if entry is not None:
            way, line = entry
            self.policy.on_access(local_line & layout.index_mask, way)
            if record_stats:
                self._hits.value += 1
                line_addr = address & layout.line_mask
                if line_addr not in self._demand_seen:
                    self._demand_seen.add(line_addr)
                    self._first_touch_hits.value += 1
                    if TRACER.enabled:
                        TRACER.instant(
                            "cache", "first_touch_hit", TRACER.now(),
                            track=self.name, args={"line": line_addr})
            return line
        if record_stats:
            self._misses.value += 1
            line_addr = address & layout.line_mask
            is_compulsory = line_addr not in self._touched
            if is_compulsory:
                self._compulsory.value += 1
            self._demand_seen.add(line_addr)
            if TRACER.enabled:
                TRACER.instant(
                    "cache", "miss", TRACER.now(), track=self.name,
                    args={"line": line_addr, "compulsory": is_compulsory})
        return None

    # ------------------------------------------------------------------
    # fills / evictions
    # ------------------------------------------------------------------

    def fill(self, address: int, state: object, tick: int,
             data: Optional[Dict[int, int]] = None, dirty: bool = False,
             ) -> Optional[Tuple[int, CacheLine]]:
        """Install the line containing *address*.

        Returns ``(victim_line_address, victim_copy)`` when a valid line
        had to be evicted, else ``None``.  The victim copy preserves
        state/dirty/data so the controller can write it back.
        """
        layout = self.layout
        local_line = address >> layout.line_shift
        set_index = local_line & layout.index_mask
        tag = local_line >> layout.index_bits
        line_addr = address & layout.line_mask
        if local_line in self._line_map:
            raise ValueError(
                f"{self.name}: double fill of line {line_addr:#x}")
        cache_set = self._sets[set_index]
        if cache_set is None:
            cache_set = self._sets[set_index] = [
                CacheLine() for _ in range(self.ways)]

        victim: Optional[Tuple[int, CacheLine]] = None
        mask = self._valid_masks[set_index]
        if mask != self._full_mask:
            # lowest-index free way, as the way scan used to pick
            free = ~mask & self._full_mask
            target_way = (free & -free).bit_length() - 1
        else:
            target_way = self.policy.victim_way(set_index)
            old = cache_set[target_way]
            victim_addr = self.layout.rebuild(old.tag, set_index)
            if self.pre_victim is not None:
                self.pre_victim(victim_addr, old)
            victim_copy = CacheLine()
            victim_copy.fill(old.tag, old.state, old.fill_tick,
                             old.data, old.dirty)
            victim = (victim_addr, victim_copy)
            self._evictions.value += 1
            if old.dirty:
                self._writebacks.value += 1
            del self._line_map[victim_addr >> layout.line_shift]

        line = cache_set[target_way]
        line.fill(tag, state, tick, data, dirty)
        self.policy.on_fill(set_index, target_way)
        self._line_map[local_line] = (target_way, line)
        self._valid_masks[set_index] = mask | (1 << target_way)
        self._touched.add(line_addr)
        return victim

    def invalidate(self, address: int) -> Optional[CacheLine]:
        """Drop the line containing *address*; return a copy, or ``None``."""
        local_line = address >> self.layout.line_shift
        entry = self._line_map.pop(local_line, None)
        if entry is None:
            return None
        way, line = entry
        set_index = local_line & self.layout.index_mask
        copy = CacheLine()
        copy.fill(line.tag, line.state, line.fill_tick,
                  line.data, line.dirty)
        line.invalidate()
        self._valid_masks[set_index] &= ~(1 << way)
        self.policy.on_invalidate(set_index, way)
        return copy

    def flash_invalidate(self) -> int:
        """Invalidate every line (GPU L1 at kernel launch); return count."""
        count = 0
        for set_index, cache_set in enumerate(self._sets):
            if cache_set is None:
                continue
            for way, line in enumerate(cache_set):
                if line.valid:
                    line.invalidate()
                    self.policy.on_invalidate(set_index, way)
                    count += 1
        self._line_map.clear()
        self._valid_masks = [0] * self.num_sets
        return count

    def release(self) -> None:
        """Drop every line and the per-run bookkeeping once a run is done.

        Cleared in place, because hot paths bind these containers when
        they are built.  A released cache holds no lines and must not be
        accessed again.
        """
        self._sets.clear()
        self._line_map.clear()
        self._touched.clear()
        self._demand_seen.clear()
        self.policy.release()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def resident_lines(self) -> List[Tuple[int, CacheLine]]:
        """All (line_address, line) pairs currently valid."""
        out = []
        for set_index, cache_set in enumerate(self._sets):
            if cache_set is None:
                continue
            for line in cache_set:
                if line.valid:
                    out.append((self.layout.rebuild(line.tag, set_index),
                                line))
        return out

    @property
    def accesses(self) -> int:
        return self._accesses.value

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def compulsory_misses(self) -> int:
        return self._compulsory.value

    @property
    def first_touch_hits(self) -> int:
        """Demand hits on lines whose data arrived without a demand miss.

        For GPU L2 slices under direct store this counts exactly the
        paper's win: a consumer access that would have been a compulsory
        miss finding the producer's pushed line already resident.
        """
        return self._first_touch_hits.value

    @property
    def miss_rate(self) -> float:
        """Demand miss rate; 0.0 when the cache saw no accesses."""
        if self._accesses.value == 0:
            return 0.0
        return self._misses.value / self._accesses.value

    def __repr__(self) -> str:
        kib = self.size_bytes // 1024
        return (f"SetAssociativeCache({self.name}, {kib}KiB, "
                f"{self.ways}-way, {self.line_size}B lines)")
