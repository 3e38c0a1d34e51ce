"""A banked DRAM timing model.

Models the paper's memory configuration (Table I): 2 GB, 1 channel,
2 ranks, 8 banks at 1 GHz.  Each bank keeps one open row; accesses are
classified as row-buffer hits (CAS only), row misses (precharge +
activate + CAS), or row empty (activate + CAS).  Banks serialize: a
request arriving while its bank is busy queues behind it.

The model answers one question per access: *at what tick is the data
available?* — which is all the cache hierarchy above needs.

Bank state lives in two parallel integer lists (open row per bank, with
``-1`` for closed, and busy-until tick per bank) rather than objects, so
:meth:`DramModel.access` indexes them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.engine.clock import ClockDomain
from repro.telemetry.tracer import TRACER
from repro.utils.bitops import is_power_of_two, log2_exact
from repro.utils.statistics import StatsRegistry


@dataclass
class DramConfig:
    """DRAM geometry and timing (cycles are memory-clock cycles)."""

    size_bytes: int = 2 * 1024 ** 3
    num_channels: int = 1
    ranks_per_channel: int = 2
    banks_per_rank: int = 8
    row_size_bytes: int = 2048
    frequency_hz: float = 1e9
    #: column access (CAS) latency in memory cycles
    t_cas: int = 14
    #: row activate (RAS-to-CAS) in memory cycles
    t_rcd: int = 14
    #: precharge in memory cycles
    t_rp: int = 14
    #: data burst occupancy of the bank per access, in memory cycles
    t_burst: int = 4

    def __post_init__(self) -> None:
        for field_name in ("num_channels", "ranks_per_channel",
                           "banks_per_rank", "row_size_bytes"):
            value = getattr(self, field_name)
            if not is_power_of_two(value):
                raise ValueError(
                    f"DRAM {field_name} must be a power of two, got {value}")

    @property
    def total_banks(self) -> int:
        return self.num_channels * self.ranks_per_channel * self.banks_per_rank


class DramModel:
    """Open-page DRAM with per-bank queueing."""

    def __init__(self, config: Optional[DramConfig] = None,
                 name: str = "dram") -> None:
        self.config = config or DramConfig()
        self.name = name
        self.clock = ClockDomain(f"{name}.clock", self.config.frequency_hz)
        total_banks = self.config.total_banks
        #: open row per bank (``-1`` = closed) and busy-until tick per
        #: bank — parallel int lists
        self._bank_open_row: List[int] = [-1] * total_banks
        self._bank_ready: List[int] = [0] * total_banks
        self._bank_bits = log2_exact(total_banks)
        self._bank_mask = (1 << self._bank_bits) - 1
        self._row_bits = log2_exact(self.config.row_size_bytes)
        # fixed-frequency clock: convert each outcome's cycle count to
        # ticks once instead of per access
        self._cas_ticks = self.clock.cycles_to_ticks(self.config.t_cas)
        self._empty_ticks = self.clock.cycles_to_ticks(
            self.config.t_rcd + self.config.t_cas)
        self._miss_ticks = self.clock.cycles_to_ticks(
            self.config.t_rp + self.config.t_rcd + self.config.t_cas)
        self._burst_ticks = self.clock.cycles_to_ticks(self.config.t_burst)
        self._size_bytes = self.config.size_bytes
        self.stats = StatsRegistry(name)
        self._reads = self.stats.counter("reads")
        self._writes = self.stats.counter("writes")
        self._row_hits = self.stats.counter("row_hits")
        self._row_misses = self.stats.counter("row_misses")
        self._row_empty = self.stats.counter("row_empty")

    def _map(self, address: int) -> "tuple[int, int]":
        """Address → (bank index, row number).

        Bank bits sit just above the row-offset bits so that streaming
        accesses rotate across banks row by row.
        """
        row_local = address >> self._row_bits
        bank = row_local & self._bank_mask
        row = row_local >> self._bank_bits
        return bank, row

    def access(self, address: int, now_tick: int,
               is_write: bool = False) -> int:
        """Perform one line access; return the tick the data is ready.

        The bank is held busy for the burst; a later access to the same
        bank queues behind this one.
        """
        if address < 0 or address >= self._size_bytes:
            raise ValueError(
                f"{self.name}: address {address:#x} outside "
                f"{self._size_bytes:#x}-byte DRAM")
        (self._writes if is_write else self._reads).value += 1
        row_local = address >> self._row_bits
        bank = row_local & self._bank_mask
        row = row_local >> self._bank_bits

        busy = self._bank_ready[bank]
        start = busy if busy > now_tick else now_tick
        open_row = self._bank_open_row[bank]
        if open_row == row:
            ready = start + self._cas_ticks
            self._row_hits.value += 1
            outcome = "row_hit"
        elif open_row == -1:
            ready = start + self._empty_ticks
            self._row_empty.value += 1
            outcome = "row_empty"
        else:
            ready = start + self._miss_ticks
            self._row_misses.value += 1
            outcome = "row_miss"
        self._bank_open_row[bank] = row
        self._bank_ready[bank] = ready + self._burst_ticks
        if TRACER.enabled:
            TRACER.span(
                "dram", outcome, now_tick, ready, track=self.name,
                args={"bank": bank,
                      "queued": start - now_tick,
                      "write": is_write})
        return ready

    def access_batch(self, addresses: Sequence[int],
                     start_ticks: Sequence[int]) -> List[int]:
        """Resolve a batch of read accesses in order; return ready ticks."""
        access = self.access
        return [access(address, start)
                for address, start in zip(addresses, start_ticks)]

    def post_write(self, address: int, now_tick: int) -> int:
        """A posted (buffered) write, e.g. an eviction writeback.

        Real controllers queue writebacks with read priority and drain
        them in row-sorted batches during idle bank cycles, so posted
        writes neither stall in-flight reads nor disturb the read
        stream's open rows.  The write is accounted (bandwidth
        statistics) but does not reserve bank time: with read-priority
        scheduling the drain hides in gaps the read stream leaves — see
        DESIGN.md §6 for the fidelity note.  Returns the retire tick.
        """
        if address < 0 or address >= self._size_bytes:
            raise ValueError(
                f"{self.name}: address {address:#x} outside DRAM")
        self._writes.value += 1
        retire = now_tick + self._burst_ticks
        if TRACER.enabled:
            TRACER.instant("dram", "posted_write", now_tick,
                           track=self.name, args={"line": address})
        return retire
