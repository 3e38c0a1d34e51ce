"""A point-to-point link with latency and bandwidth."""

from __future__ import annotations

from repro.engine.clock import ClockDomain
from repro.utils.statistics import StatsRegistry


class Link:
    """Fixed-latency, finite-bandwidth, store-and-forward link.

    A message of ``n`` bytes occupies the link for
    ``ceil(n / bytes_per_cycle)`` cycles; a second message arriving while
    the link is busy queues behind it.  Delivery completes one link
    latency after transmission finishes.
    """

    def __init__(self, name: str, clock: ClockDomain, latency_cycles: int,
                 bytes_per_cycle: int = 32) -> None:
        if latency_cycles < 0:
            raise ValueError(f"{name}: negative latency")
        if bytes_per_cycle <= 0:
            raise ValueError(f"{name}: bandwidth must be positive")
        self.name = name
        self.clock = clock
        self.latency_cycles = latency_cycles
        self.bytes_per_cycle = bytes_per_cycle
        # Bandwidth is enforced by booking bytes into fixed epochs
        # rather than a single monotonic busy-until: the coherence
        # engine sends messages with walk-computed (sometimes future,
        # sometimes out-of-order) timestamps, and a monotonic timeline
        # would serialize an earlier-ready message behind a
        # later-scheduled one even when the wire was idle in between.
        self._epoch_cycles = 32
        self._epoch_ticks = clock.cycles_to_ticks(self._epoch_cycles)
        self._epoch_capacity = bytes_per_cycle * self._epoch_cycles
        self._epoch_used: dict = {}
        # plain ints on the hottest path in the simulator; exposed via
        # properties and a dump-compatible StatsRegistry on demand
        self._message_count = 0
        self._byte_count = 0
        self._queue_delay_total = 0
        self._latency_ticks = clock.cycles_to_ticks(latency_cycles)
        self._period = clock.period_ticks

    def send(self, size_bytes: int, now_tick: int) -> int:
        """Transmit *size_bytes* starting no earlier than *now_tick*.

        Returns the arrival tick at the far end.
        """
        self._message_count += 1
        self._byte_count += size_bytes
        used = self._epoch_used
        epoch_ticks = self._epoch_ticks
        capacity = self._epoch_capacity
        epoch = now_tick // epoch_ticks
        booked = used.get(epoch, 0)
        if booked + size_bytes <= capacity:
            # fast path: the whole message fits in the current epoch
            used[epoch] = booked + size_bytes
        else:
            remaining = size_bytes
            while True:
                free = capacity - booked
                if free > 0:
                    taken = free if free < remaining else remaining
                    used[epoch] = booked + taken
                    remaining -= taken
                    if remaining == 0:
                        break
                epoch += 1
                booked = used.get(epoch, 0)
        # finish inside the final epoch, proportional to its occupancy
        finish = (epoch * self._epoch_ticks
                  + (used[epoch] * self._epoch_ticks)
                  // self._epoch_capacity)
        ideal = now_tick + (-(-size_bytes // self.bytes_per_cycle)
                            * self._period)
        if finish < ideal:
            finish = ideal
        self._queue_delay_total += finish - ideal
        if len(used) > 4096:
            self._prune(epoch)
        return finish + self._latency_ticks

    def _prune(self, current_epoch: int) -> None:
        """Drop booking state far behind the send frontier."""
        cutoff = current_epoch - 1024
        for key in [k for k in self._epoch_used if k < cutoff]:
            del self._epoch_used[key]

    def reset(self) -> None:
        """Clear occupancy (between experiments)."""
        self._epoch_used.clear()

    @property
    def stats(self) -> StatsRegistry:
        """Snapshot registry (built lazily; links are perf-critical)."""
        registry = StatsRegistry(self.name)
        registry.counter("messages").value = self._message_count
        registry.counter("bytes").value = self._byte_count
        registry.counter("queue_delay_ticks").value = \
            self._queue_delay_total
        return registry
