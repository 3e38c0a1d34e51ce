"""The GPU device: a set of SMs sharing the sliced L2."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.gpu.sm import StreamingMultiprocessor
from repro.telemetry.tracer import TRACER
from repro.utils.statistics import StatsRegistry
from repro.workloads.trace import KernelLaunch, WarpProgram


class GpuDevice:
    """Distributes kernel warps over the SMs and tracks completion."""

    def __init__(self, name: str,
                 sms: List[StreamingMultiprocessor]) -> None:
        if not sms:
            raise ValueError(f"{name}: need at least one SM")
        self.name = name
        self.sms = sms
        self.stats = StatsRegistry(name)
        self._kernels = self.stats.counter("kernels_launched")
        self._warps = self.stats.counter("warps_executed")
        self._pending_sms = 0
        self._on_done: Optional[Callable[[int], None]] = None
        self._finish_tick = 0

    def launch(self, kernel: KernelLaunch,
               on_done: Callable[[int], None]) -> None:
        """Run *kernel* to completion; *on_done(finish_tick)* fires last.

        Warps are assigned round-robin across SMs (block scheduling in
        real hardware; round-robin matches it for homogeneous warps).
        Every SM flash-invalidates its L1 at launch — the software
        coherence rule the paper's baseline relies on.
        """
        if self._on_done is not None:
            raise RuntimeError(f"{self.name}: kernel already in flight")
        self._kernels.increment()
        self._warps.increment(len(kernel.warps))
        if TRACER.enabled:
            TRACER.instant("warp", "kernel_launch", TRACER.now(),
                           track=self.name,
                           args={"kernel": kernel.name,
                                 "warps": len(kernel.warps)})
        buckets: List[List[WarpProgram]] = [[] for _ in self.sms]
        for index, warp in enumerate(kernel.warps):
            buckets[index % len(self.sms)].append(warp)
        self._on_done = on_done
        self._finish_tick = 0
        self._pending_sms = len(self.sms)
        for sm, assigned in zip(self.sms, buckets):
            sm.launch(assigned, self._sm_done)

    def _sm_done(self, finish_tick: int) -> None:
        self._finish_tick = max(self._finish_tick, finish_tick)
        self._pending_sms -= 1
        if self._pending_sms == 0:
            on_done = self._on_done
            self._on_done = None
            assert on_done is not None
            on_done(self._finish_tick)
