"""A bounded FIFO write (store) buffer.

The CPU core retires stores into this buffer and continues; the buffer
drains to the memory system in the background.  When it is full the core
stalls — this is how direct store's *increased CPU store latency*
(paper §III-B) feeds back into end-to-end time.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.utils.statistics import StatsRegistry


class WriteBuffer:
    """FIFO of pending (address, value, size) stores."""

    def __init__(self, name: str, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"{name}: capacity must be positive")
        self.name = name
        self.capacity = capacity
        self._queue: Deque[Tuple[int, Optional[int], int]] = deque()
        self.stats = StatsRegistry(name)
        self._enqueued = self.stats.counter("enqueued")
        self._drained = self.stats.counter("drained")
        self._full_stalls = self.stats.counter("full_stalls")

    @property
    def is_full(self) -> bool:
        return len(self._queue) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._queue

    def push(self, address: int, value: Optional[int] = None,
             size: int = 4) -> bool:
        """Append a store; ``False`` (and a stall stat) when full."""
        if self.is_full:
            self._full_stalls.increment()
            return False
        self._queue.append((address, value, size))
        self._enqueued.increment()
        return True

    def pop(self) -> Tuple[int, Optional[int], int]:
        """Remove and return the oldest store."""
        if not self._queue:
            raise IndexError(f"{self.name}: pop from empty write buffer")
        self._drained.increment()
        return self._queue.popleft()

    def peek(self) -> Tuple[int, Optional[int], int]:
        """Oldest store without removing it."""
        if not self._queue:
            raise IndexError(f"{self.name}: peek at empty write buffer")
        return self._queue[0]

    def forwards(self, address: int) -> Tuple[bool, Optional[int]]:
        """Store-to-load forwarding: ``(True, value)`` of the youngest
        buffered store to *address*, or ``(False, None)``.

        The match is reported apart from the value: a store without a
        tracked value (``None``) still forwards.
        """
        for buffered_address, value, _size in reversed(self._queue):
            if buffered_address == address:
                return True, value
        return False, None

    def __len__(self) -> int:
        return len(self._queue)
