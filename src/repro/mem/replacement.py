"""Replacement policies for set-associative structures.

Each policy tracks per-set recency metadata and answers one question:
*which way should be evicted?*  The cache calls :meth:`on_access` on hits,
:meth:`on_fill` on insertions, and :meth:`victim_way` when a set is full.

Four policies are provided:

* :class:`LRUReplacement` — true least-recently-used (the default; the
  Ruby caches used by gem5-gpu default to LRU).
* :class:`PseudoLRUReplacement` — tree-PLRU, the common hardware
  approximation for higher associativities.
* :class:`FIFOReplacement` — evict the oldest fill.
* :class:`RandomReplacement` — seeded random victim.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import List

from repro.utils.bitops import is_power_of_two, log2_exact


class ReplacementPolicy(ABC):
    """Interface shared by every replacement policy."""

    def __init__(self, num_sets: int, num_ways: int) -> None:
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("sets and ways must be positive")
        self.num_sets = num_sets
        self.num_ways = num_ways

    @abstractmethod
    def on_access(self, set_index: int, way: int) -> None:
        """Record a hit on (*set_index*, *way*)."""

    @abstractmethod
    def on_fill(self, set_index: int, way: int) -> None:
        """Record a fill into (*set_index*, *way*)."""

    @abstractmethod
    def victim_way(self, set_index: int) -> int:
        """Choose the way to evict from a full set."""

    def on_invalidate(self, set_index: int, way: int) -> None:
        """Record an invalidation (default: no metadata change)."""

    def release(self) -> None:
        """Drop the per-set metadata once the owning cache is done."""


class LRUReplacement(ReplacementPolicy):
    """Exact LRU using a per-set recency stack (list, MRU at the back)."""

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        self._stacks: List[List[int]] = [
            list(range(num_ways)) for _ in range(num_sets)]

    def on_access(self, set_index: int, way: int) -> None:
        stack = self._stacks[set_index]
        if stack[-1] != way:  # already MRU: remove+append is a no-op
            stack.remove(way)
            stack.append(way)

    def on_fill(self, set_index: int, way: int) -> None:
        self.on_access(set_index, way)

    def victim_way(self, set_index: int) -> int:
        return self._stacks[set_index][0]

    def release(self) -> None:
        self._stacks.clear()

    def on_invalidate(self, set_index: int, way: int) -> None:
        # demote to LRU position so the hole is reused first
        stack = self._stacks[set_index]
        stack.remove(way)
        stack.insert(0, way)


class PseudoLRUReplacement(ReplacementPolicy):
    """Tree-PLRU: one decision bit per internal node of a binary tree.

    Requires a power-of-two way count.  On access, each node on the path
    to the touched way is pointed *away* from it; the victim follows the
    bits from the root.
    """

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        if not is_power_of_two(num_ways):
            raise ValueError(
                f"tree PLRU needs power-of-two ways, got {num_ways}")
        self._levels = log2_exact(num_ways) if num_ways > 1 else 0
        # bits[set] is a flat array of internal nodes, root at index 1
        self._bits: List[List[int]] = [
            [0] * max(1, num_ways) for _ in range(num_sets)]

    def on_access(self, set_index: int, way: int) -> None:
        if self._levels == 0:
            return
        bits = self._bits[set_index]
        node = 1
        for level in range(self._levels):
            bit = (way >> (self._levels - 1 - level)) & 1
            bits[node] = 1 - bit  # point away from the touched side
            node = 2 * node + bit

    def on_fill(self, set_index: int, way: int) -> None:
        self.on_access(set_index, way)

    def victim_way(self, set_index: int) -> int:
        if self._levels == 0:
            return 0
        bits = self._bits[set_index]
        node = 1
        way = 0
        for _level in range(self._levels):
            bit = bits[node]
            way = (way << 1) | bit
            node = 2 * node + bit
        return way

    def release(self) -> None:
        self._bits.clear()


class FIFOReplacement(ReplacementPolicy):
    """Evict ways in fill order, ignoring hits."""

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        self._order: List[List[int]] = [
            list(range(num_ways)) for _ in range(num_sets)]

    def on_access(self, set_index: int, way: int) -> None:
        pass  # FIFO ignores hits by definition

    def on_fill(self, set_index: int, way: int) -> None:
        order = self._order[set_index]
        order.remove(way)
        order.append(way)

    def victim_way(self, set_index: int) -> int:
        return self._order[set_index][0]

    def release(self) -> None:
        self._order.clear()


class RandomReplacement(ReplacementPolicy):
    """Seeded random victim selection (deterministic across runs)."""

    def __init__(self, num_sets: int, num_ways: int, seed: int = 0) -> None:
        super().__init__(num_sets, num_ways)
        self._rng = random.Random(seed)

    def on_access(self, set_index: int, way: int) -> None:
        pass

    def on_fill(self, set_index: int, way: int) -> None:
        pass

    def victim_way(self, set_index: int) -> int:
        return self._rng.randrange(self.num_ways)


_POLICIES = {
    "lru": LRUReplacement,
    "plru": PseudoLRUReplacement,
    "fifo": FIFOReplacement,
    "random": RandomReplacement,
}


def make_replacement_policy(name: str, num_sets: int,
                            num_ways: int) -> ReplacementPolicy:
    """Build a policy by name (``lru``, ``plru``, ``fifo``, ``random``)."""
    try:
        policy_class = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"choose from {sorted(_POLICIES)}") from None
    return policy_class(num_sets, num_ways)
