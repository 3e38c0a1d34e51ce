"""A sampling host-time profiler that splits CPU time across layers.

``signal.setitimer(ITIMER_PROF)`` interrupts the process every
:data:`SAMPLE_INTERVAL_S` of CPU time (the kernel rounds the interval up
to its tick: on a 250 Hz kernel a sample stands for 4 ms, so a layer's
seconds are estimated as its share of the measured CPU time, not as
samples times the interval).  The ``SIGPROF`` handler walks
outward from the interrupted frame to the first frame whose module is
in :data:`MODULE_LAYER` and charges one sample to that layer.  Frames of
other modules (the stdlib, ``enum`` descriptors, ...) fall through to
their callers; a sample with no mapped frame at all counts as
``other``.  The two fused modules flatten several layers into one
function each, so they alone may refine the module's layer per function
(:data:`FUNCTION_LAYER`).

Nothing in the simulator knows the profiler exists: a profiled run
executes exactly the code an unprofiled run executes, and only the
handler's own cost (a short frame walk per sample) is added.

Usage::

    from repro.utils.profiler import SamplingProfiler

    with SamplingProfiler() as profiler:
        run_benchmark("KM", "small", CoherenceMode.CCSM)
    print(profiler.report())

Entering the same profiler again accumulates into the same counts.
"""

from __future__ import annotations

import signal
import threading
import time
from typing import Dict, Optional, Tuple

#: CPU seconds between samples (the ITIMER_PROF interval)
SAMPLE_INTERVAL_S = 0.001

#: layer charged when no frame of the sample maps to a layer
OTHER = "other"

#: module -> host-time layer
MODULE_LAYER: Dict[str, str] = {
    "repro.engine.simulator": "engine",
    "repro.engine.event": "engine",
    "repro.engine.clock": "engine",
    "repro.gpu.sm": "warp",
    "repro.gpu.gpu": "warp",
    "repro.gpu.coalescer": "coalescer",
    "repro.vm.mmu": "tlb",
    "repro.vm.tlb": "tlb",
    "repro.vm.pagetable": "tlb",
    "repro.vm.mmap": "tlb",
    "repro.mem.cache": "cache",
    "repro.mem.cacheline": "cache",
    "repro.mem.replacement": "cache",
    "repro.mem.address": "cache",
    "repro.gpu.prefetch": "cache",
    "repro.mem.mshr": "mshr",
    "repro.coherence.port": "protocol",
    "repro.coherence.batch_kernel": "protocol",
    "repro.coherence.hammer": "protocol",
    "repro.coherence.protocol_table": "protocol",
    "repro.coherence.states": "protocol",
    "repro.mem.dram": "dram",
    "repro.mem.memimage": "dram",
    "repro.interconnect.network": "network",
    "repro.interconnect.direct_network": "network",
    "repro.interconnect.link": "network",
    "repro.interconnect.message": "network",
    "repro.cpu.core": "cpu",
    "repro.cpu.hierarchy": "cpu",
    "repro.workloads.base": "trace_build",
    "repro.workloads.trace": "trace_build",
    "repro.workloads.patterns": "trace_build",
    "repro.workloads.graphs": "trace_build",
    "repro.workloads.misc": "trace_build",
    "repro.workloads.pannotia": "trace_build",
    "repro.workloads.parboil": "trace_build",
    "repro.workloads.rodinia": "trace_build",
    "repro.workloads.sdk": "trace_build",
    "repro.workloads.synthetic": "trace_build",
    "repro.workloads.suite": "trace_build",
    "repro.core.system": "system",
    "repro.core.config": "system",
    "repro.core.direct_store": "system",
    "repro.core.regions": "system",
    "repro.core.metrics": "system",
    "repro.core.program": "system",
    "repro.harness.runner": "system",
    "repro.utils.statistics": "stats",
    "repro.telemetry.tracer": "telemetry",
    "repro.telemetry.sampler": "telemetry",
    "repro.telemetry.settings": "telemetry",
    # the profiler's own enter/exit, should a sample land there
    __name__: OTHER,
}

#: (module, function) -> layer, for the two fused modules only
FUNCTION_LAYER: Dict[Tuple[str, str], str] = {
    ("repro.gpu.sm", "_translate_line"): "tlb",
    ("repro.gpu.sm", "_install_l1"): "cache",
    ("repro.coherence.batch_kernel", "_load_hit"): "cache",
    ("repro.coherence.batch_kernel", "_store_hit"): "cache",
    ("repro.coherence.batch_kernel", "_write_word"): "cache",
}


class SamplingProfiler:
    """Count ``SIGPROF`` samples per layer while the context is entered."""

    def __init__(self) -> None:
        #: layer -> samples
        self.samples: Dict[str, int] = {}
        #: unmapped ``repro.*`` module -> samples that passed through it
        #: (those samples were charged to a caller's layer)
        self.unmapped: Dict[str, int] = {}
        #: process CPU seconds spent inside the context
        self.cpu_seconds = 0.0
        self._saved: Optional[tuple] = None

    def __enter__(self) -> "SamplingProfiler":
        if not hasattr(signal, "setitimer"):
            raise RuntimeError(
                "the sampling profiler needs signal.setitimer "
                "(POSIX only)")
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError(
                "the sampling profiler must be entered from the main "
                "thread (SIGPROF handlers run there only)")
        if self._saved is not None:
            raise RuntimeError("the sampling profiler is already running")
        handler = signal.signal(signal.SIGPROF, self._on_sample)
        timer = signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                                 SAMPLE_INTERVAL_S)
        self._saved = (handler, timer, time.process_time())
        return self

    def __exit__(self, *exc_info) -> None:
        handler, (delay, interval), started = self._saved
        self._saved = None
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.cpu_seconds += time.process_time() - started
        signal.signal(signal.SIGPROF,
                      signal.SIG_DFL if handler is None else handler)
        if delay or interval:
            signal.setitimer(signal.ITIMER_PROF, delay, interval)

    def _on_sample(self, _signum, frame) -> None:
        unmapped = None
        layer = OTHER
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            mapped = MODULE_LAYER.get(module)
            if mapped is not None:
                layer = FUNCTION_LAYER.get((module, frame.f_code.co_name),
                                           mapped)
                break
            if unmapped is None and module.startswith("repro."):
                unmapped = module
            frame = frame.f_back
        self.samples[layer] = self.samples.get(layer, 0) + 1
        if unmapped is not None:
            self.unmapped[unmapped] = self.unmapped.get(unmapped, 0) + 1

    # ------------------------------------------------------------------

    @property
    def total_samples(self) -> int:
        return sum(self.samples.values())

    def shares(self) -> Dict[str, float]:
        """``{layer: percent of samples}``, largest first."""
        total = self.total_samples
        return {layer: count * 100.0 / total
                for layer, count in sorted(self.samples.items(),
                                           key=lambda kv: -kv[1])}

    def report(self) -> str:
        """A fixed-width table of layers, sorted by samples."""
        header = f"{'layer':<12} {'samples':>9} {'est s':>9} {'%':>7}"
        lines = [header, "-" * len(header)]
        for layer, share in self.shares().items():
            lines.append(f"{layer:<12} {self.samples[layer]:>9,} "
                         f"{share / 100.0 * self.cpu_seconds:>9.3f} "
                         f"{share:>6.1f}%")
        lines.append("-" * len(header))
        lines.append(f"{'total':<12} {self.total_samples:>9,} "
                     f"{self.cpu_seconds:>9.3f}")
        return "\n".join(lines)
