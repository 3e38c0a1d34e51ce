"""Lightweight statistics primitives for simulator instrumentation.

The design mirrors gem5's stats framework in miniature: named counters
and histograms, grouped under a registry so an experiment can dump every
statistic a component recorded.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional


class Counter:
    """A monotonically increasing event counter."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        """Add *amount* (default 1) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """A fixed-bucket histogram for latency and queue-depth distributions."""

    def __init__(self, name: str, bucket_bounds: Iterable[int],
                 description: str = "") -> None:
        self.name = name
        self.description = description
        self.bounds: List[int] = sorted(bucket_bounds)
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        # buckets[i] counts samples <= bounds[i]; the final bucket is overflow
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.total_samples = 0
        self.total_value = 0
        self.min_value: Optional[int] = None
        self.max_value: Optional[int] = None

    def record(self, value: int) -> None:
        """Add one sample."""
        self.total_samples += 1
        self.total_value += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        # first bound >= value, or len(bounds) = the overflow bucket
        self.buckets[bisect_left(self.bounds, value)] += 1

    def reset(self) -> None:
        """Drop every sample, keeping the buckets' bounds."""
        self.buckets = [0] * (len(self.bounds) + 1)
        self.total_samples = 0
        self.total_value = 0
        self.min_value = None
        self.max_value = None

    @property
    def mean(self) -> float:
        if self.total_samples == 0:
            return 0.0
        return self.total_value / self.total_samples

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.total_samples}, mean={self.mean:.1f})"


class StatsRegistry:
    """A named collection of statistics owned by one simulated component.

    Components create their stats through the registry so that experiments
    can enumerate and dump them uniformly::

        stats = StatsRegistry("gpu.l2")
        misses = stats.counter("misses", "demand misses")
    """

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str, description: str = "") -> Counter:
        """Create (or fetch) the counter called *name*."""
        if name not in self._counters:
            self._counters[name] = Counter(f"{self.owner}.{name}", description)
        return self._counters[name]

    def histogram(self, name: str, bucket_bounds: Iterable[int],
                  description: str = "") -> Histogram:
        """Create (or fetch) the histogram called *name*."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(
                f"{self.owner}.{name}", bucket_bounds, description)
        return self._histograms[name]

    def reset(self) -> None:
        """Zero every statistic in the registry."""
        for counter in self._counters.values():
            counter.reset()
        # in place, like the counters: components hold their histograms
        for hist in self._histograms.values():
            hist.reset()

    def dump(self) -> Dict[str, float]:
        """Return a flat ``{qualified_name: value}`` snapshot."""
        snapshot: Dict[str, float] = {}
        for counter in self._counters.values():
            snapshot[counter.name] = float(counter.value)
        for hist in self._histograms.values():
            snapshot[f"{hist.name}.mean"] = hist.mean
            snapshot[f"{hist.name}.samples"] = float(hist.total_samples)
        return snapshot


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values; 0.0 for an empty sequence.

    The paper reports the geometric mean of *non-zero* speedups
    (Fig. 4) and of miss rates (Fig. 5); callers filter, we average.
    """
    values = list(values)
    if not values:
        return 0.0
    for value in values:
        if value <= 0:
            raise ValueError(f"geometric mean requires positive values, got {value}")
    return math.exp(sum(math.log(value) for value in values) / len(values))
