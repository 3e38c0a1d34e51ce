"""Miss Status Holding Registers.

An MSHR file tracks outstanding misses so that (a) multiple requests to
the same in-flight line merge instead of duplicating traffic, and (b) a
controller can bound its outstanding-miss parallelism.  Waiters are
arbitrary callbacks invoked when the fill returns.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.utils.statistics import StatsRegistry

Waiter = Callable[[], None]


class MSHREntry:
    """Bookkeeping for one in-flight line."""

    __slots__ = ("line_address", "issue_tick", "waiters", "is_write")

    def __init__(self, line_address: int, issue_tick: int,
                 is_write: bool) -> None:
        self.line_address = line_address
        self.issue_tick = issue_tick
        self.is_write = is_write
        self.waiters: List[Waiter] = []


class MSHRFile:
    """A bounded set of :class:`MSHREntry` keyed by line address."""

    def __init__(self, name: str, num_entries: int) -> None:
        if num_entries <= 0:
            raise ValueError(f"{name}: MSHR count must be positive")
        self.name = name
        self.num_entries = num_entries
        self._entries: Dict[int, MSHREntry] = {}
        self.stats = StatsRegistry(name)
        self._allocations = self.stats.counter("allocations")
        self._merges = self.stats.counter(
            "merges", "requests merged into an existing entry")
        self._full_stalls = self.stats.counter(
            "full_stalls", "allocations rejected because the file was full")

    def lookup(self, line_address: int) -> Optional[MSHREntry]:
        """Entry for *line_address* if the line is already in flight."""
        return self._entries.get(line_address)

    def probe_batch(self, line_addresses: "List[int]") -> "List[bool]":
        """In-flight mask for a batch of lines (no statistics).

        The merge decision for every line of one coalesced access is
        stable at batch time: processing line *i* can only *allocate*
        line *i* itself (the lines of a batch are distinct), never
        insert or retire another line's entry, so the mask computed here
        equals the mask a scalar per-line walk would have observed.
        """
        entries = self._entries
        return [line in entries for line in line_addresses]

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.num_entries

    def allocate(self, line_address: int, issue_tick: int,
                 is_write: bool = False) -> Optional[MSHREntry]:
        """Start tracking a new miss.

        Returns the fresh entry, or ``None`` when the file is full (the
        caller must retry later).  Allocating a line that is already in
        flight is a protocol bug and raises.
        """
        if line_address in self._entries:
            raise ValueError(
                f"{self.name}: line {line_address:#x} already in flight")
        if self.is_full:
            self._full_stalls.value += 1
            return None
        entry = MSHREntry(line_address, issue_tick, is_write)
        self._entries[line_address] = entry
        self._allocations.value += 1
        return entry

    def merge(self, line_address: int, waiter: Waiter) -> bool:
        """Attach *waiter* to an in-flight line; ``False`` if none exists."""
        entry = self._entries.get(line_address)
        if entry is None:
            return False
        entry.waiters.append(waiter)
        self._merges.value += 1
        return True

    def complete(self, line_address: int) -> List[Waiter]:
        """Retire the entry; return its waiters for the caller to wake."""
        entry = self._entries.pop(line_address, None)
        if entry is None:
            raise KeyError(
                f"{self.name}: completing unknown line {line_address:#x}")
        return entry.waiters

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, line_address: int) -> bool:
        return line_address in self._entries
