"""Event-driven port from a cache controller into the Hammer engine.

The engine's walks are synchronous (they compute a completion tick); the
CPU core and GPU SMs are event-driven with many concurrent accesses.  A
:class:`CoherentPort` bridges the two and enforces per-line
serialization with an MSHR file:

* a request to a line already in flight *merges* — its callback runs
  when the first request's fill returns (no duplicate traffic);
* otherwise the walk runs, an MSHR entry tracks it, and the callback is
  scheduled at the walk's completion tick.

This mirrors Ruby's transient-state behaviour at transaction
granularity: while a line is in flight, later requestors wait instead of
racing.
"""

from __future__ import annotations

import os
from collections import deque
from functools import partial
from typing import Callable, Optional

from repro.coherence.hammer import AccessResult, HammerSystem
from repro.engine.event import EventQueue
from repro.mem.mshr import MSHRFile
from repro.telemetry.tracer import TRACER

Callback = Callable[[AccessResult], None]

#: environment variable disabling the batched coherence/memory kernel
#: (set to ``0``); the kernel is otherwise on
BATCH_KERNEL_ENV = "REPRO_BATCH_KERNEL"


def batch_kernel_enabled() -> bool:
    """Is the batched coherence/memory kernel active?

    The kernel (:mod:`repro.coherence.batch_kernel`) routes a port's
    requests through fused, table-driven walks instead of the layered
    per-message call path.  ``REPRO_BATCH_KERNEL=0`` keeps the layered
    :meth:`CoherentPort._request` path, the bit-identical reference the
    equivalence tests diff against.  Read when each port is built.
    """
    return os.environ.get(BATCH_KERNEL_ENV, "") != "0"


class CoherentPort:
    """Per-controller access point into the coherence engine."""

    def __init__(self, name: str, agent_name: str, engine: HammerSystem,
                 queue: EventQueue, num_mshrs: int = 16) -> None:
        self.name = name
        self.agent_name = agent_name
        self.engine = engine
        self.queue = queue
        self.mshrs = MSHRFile(f"{name}.mshr", num_mshrs)
        # bound method of the MSHR dict: one in-flight check per request
        self._mshr_get = self.mshrs._entries.get
        self._line_size = engine.line_size
        self._line_mask = ~(engine.line_size - 1)
        # event labels, precomputed off the per-request path
        self._name_hit = f"{name}.hit"
        self._name_fill = f"{name}.fill"
        self._name_accept = f"{name}.accept"
        #: requests stalled on a full MSHR file, drained in FIFO order
        #: when entries retire (no polling — a full file would otherwise
        #: cause a retry storm under heavy fan-in)
        self._waiting: "deque" = deque()
        # The batched kernel shadows load/store/load_batch with its
        # fused entry points and drains parked requests through them;
        # _request stays the reference path and the kernel's fallback
        # while the telemetry tracer is live.
        self._kernel = None
        if batch_kernel_enabled():
            from repro.coherence.batch_kernel import PortBatchKernel
            kernel = PortBatchKernel(self)
            self._kernel = kernel
            self.load = kernel.load  # type: ignore[method-assign]
            self.store = kernel.store  # type: ignore[method-assign]
            self.load_batch = kernel.load_batch  # type: ignore[method-assign]

    def _line(self, address: int) -> int:
        return address & self._line_mask

    def load(self, address: int, callback: Callback) -> None:
        """Issue a coherent load; *callback* fires at completion."""
        self._request(address, None, callback, is_store=False)

    def load_batch(self, requests) -> None:
        """Issue the loads of one coalesced access (one per line).

        The reference implementation is a plain loop; the batched kernel
        replaces it with a staged MSHR-mask + fused-walk version.
        """
        for address, callback in requests:
            self._request(address, None, callback, is_store=False)

    def store(self, address: int, value: Optional[int],
              callback: Callback,
              on_accept: Optional[Callable[[], None]] = None) -> None:
        """Issue a coherent store; *callback* fires at completion.

        *on_accept* fires when the request secures an MSHR (or merges,
        or hits) — the point at which a store buffer can free its drain
        slot while the miss completes in the background.
        """
        self._request(address, value, callback, is_store=True,
                      on_accept=on_accept)

    def _request(self, address: int, value: Optional[int],
                 callback: Callback, is_store: bool,
                 on_accept: Optional[Callable[[], None]] = None) -> None:
        line_address = self._line(address)
        now = self.queue.current_tick

        in_flight = self._mshr_get(line_address)
        full = in_flight is None and self.mshrs.is_full
        if in_flight is not None:
            # merge: replay the whole request once the line settles —
            # by then it is (usually) resident and completes locally.
            self._accept(on_accept)
            self.mshrs.merge(
                line_address,
                lambda: self._request(address, value, callback, is_store))
            return
        if full:
            # structural stall: park until an entry retires
            self._waiting.append(
                (address, value, callback, is_store, on_accept))
            return
        self._accept(on_accept)

        if is_store:
            result = self.engine.store(self.agent_name, address, value, now)
        else:
            result = self.engine.load(self.agent_name, address, now)

        if result.hit:
            # no fill in flight; deliver at the access's ready tick
            self.queue.post_at(result.ready_tick, partial(callback, result))
            return

        entry = self.mshrs.allocate(line_address, now, is_write=is_store)
        assert entry is not None  # guarded by the is_full check above

        def _complete() -> None:
            waiters = self.mshrs.complete(line_address)
            callback(result)
            for waiter in waiters:
                waiter()
            self._drain_waiting()

        self.queue.post_at(result.ready_tick, _complete)

    def _accept(self, on_accept: Optional[Callable[[], None]]) -> None:
        """Fire an acceptance callback on a fresh event.

        Deferring keeps ``_request`` non-reentrant: an acceptance handler
        typically kicks the store-buffer drain, which issues the next
        request into this same port.
        """
        if on_accept is not None:
            self.queue.post_after(0, on_accept)

    def _drain_waiting(self) -> None:
        """Re-issue parked requests now that MSHR space freed up.

        With the kernel installed they re-enter its fused request, as
        merge replays do; the layered :meth:`_request` drains them only
        under ``REPRO_BATCH_KERNEL=0`` or while the tracer is live.
        """
        if self._kernel is not None and not TRACER.enabled:
            self._kernel.drain_waiting()
            return
        while self._waiting and not self.mshrs.is_full:
            address, value, callback, is_store, on_accept = \
                self._waiting.popleft()
            self._request(address, value, callback, is_store, on_accept)
