"""Shared utilities: bit manipulation, statistics, and math helpers."""

from repro.utils.bitops import (
    align_up,
    is_power_of_two,
    log2_exact,
    mask,
)
from repro.utils.statistics import (
    Counter,
    Histogram,
    StatsRegistry,
    geometric_mean,
)

__all__ = [
    "align_up",
    "is_power_of_two",
    "log2_exact",
    "mask",
    "Counter",
    "Histogram",
    "StatsRegistry",
    "geometric_mean",
]
