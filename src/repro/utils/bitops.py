"""Bit-manipulation helpers used throughout the memory system.

Hardware structures (caches, TLBs, DRAM address mapping) decompose
addresses into bit fields.  These helpers centralize that logic so every
module slices addresses the same way.
"""

from __future__ import annotations


def is_power_of_two(value: int) -> bool:
    """Return ``True`` when *value* is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return ``log2(value)`` for an exact power of two.

    Raises:
        ValueError: if *value* is not a positive power of two.  Hardware
            index fields only make sense for power-of-two geometries, so a
            non-power-of-two is a configuration error, not a rounding case.
    """
    if not is_power_of_two(value):
        raise ValueError(f"expected a power of two, got {value!r}")
    return value.bit_length() - 1


def mask(num_bits: int) -> int:
    """Return a mask with the low *num_bits* bits set."""
    if num_bits < 0:
        raise ValueError(f"negative bit count: {num_bits}")
    return (1 << num_bits) - 1


def align_up(value: int, alignment: int) -> int:
    """Round *value* up to a multiple of *alignment* (a power of two)."""
    if not is_power_of_two(alignment):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    return (value + alignment - 1) & ~(alignment - 1)
