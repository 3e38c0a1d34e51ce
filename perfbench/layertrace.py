"""Outside-in layer tracing: span wrappers installed on layer classes.

The benchmark measures each layer from outside the program: it replaces
public methods of the layer classes with timing wrappers for the length
of a traced unit of work and restores the originals afterwards.  No
code under ``src/`` changes, and no ``REPRO_*`` knob, profiler or
telemetry tracer is switched on, so the traced program takes the same
paths as the untraced one.

Every wrapper keeps a per-thread stack frame that accumulates the time
of its child spans, so a span's *self* time is its duration minus the
part covered by spans it caused.  Coarse spans (one per system build,
simulator run, HTTP call, explorer batch, ...) are kept individually;
hot fine-grained spans (cache lookups, port requests, network sends)
fire millions of times per suite and are folded into one aggregate row
per (span name, enclosing coarse span).  Everything is held in memory
and written once when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

# (layer span name, "module:Class", methods, coarse?)
LayerSpec = Tuple[str, str, Sequence[str], bool]

#: Simulator layers, exercised in-process by the suite workloads.  The
#: batched coherence kernel (the default path) fuses MSHR, Hammer, DRAM
#: and crossbar work into ``PortBatchKernel``; that work is reported
#: inside ``coherence.port`` and is not split, because splitting it
#: would mean running the reference path, a different program.
SIM_LAYERS: List[LayerSpec] = [
    ("workloads.build", "repro.workloads.base:Workload",
     ("build_phases",), True),
    ("core.system_build", "repro.core.system:IntegratedSystem",
     ("__init__",), True),
    ("engine.run", "repro.engine.simulator:Simulator", ("run",), True),
    ("gpu.coalesce", "repro.gpu.coalescer:Coalescer",
     ("coalesce", "coalesce_op"), False),
    ("vm.translate", "repro.vm.mmu:MMU",
     ("translate", "translate_batch"), False),
    ("mem.cache", "repro.mem.cache:SetAssociativeCache",
     ("lookup", "lookup_batch", "probe", "probe_batch", "fill",
      "invalidate"), False),
    ("mem.mshr", "repro.mem.mshr:MSHRFile",
     ("lookup", "probe_batch", "allocate", "merge", "complete"), False),
    ("mem.dram", "repro.mem.dram:DramModel",
     ("access", "access_batch", "post_write"), False),
    ("coherence.port", "repro.coherence.port:CoherentPort",
     ("load", "store", "load_batch"), False),
    ("coherence.port", "repro.coherence.batch_kernel:PortBatchKernel",
     ("load", "store", "load_batch"), False),
    ("coherence.hammer", "repro.coherence.hammer:HammerSystem",
     ("load", "store", "remote_store", "evict", "prefetch",
      "uncached_load"), False),
    ("interconnect.send", "repro.interconnect.network:Crossbar",
     ("send", "send_raw"), False),
    ("interconnect.send",
     "repro.interconnect.direct_network:DirectStoreNetwork",
     ("send", "forward_raw"), False),
    ("cpu.mem", "repro.cpu.hierarchy:CpuMemorySubsystem",
     ("load", "store"), False),
]

#: Result-cache and runner layers (service and explorer workloads).
HARNESS_LAYERS: List[LayerSpec] = [
    ("harness.cache_get", "repro.harness.resultcache:ResultCache",
     ("get",), True),
    ("harness.cache_put", "repro.harness.resultcache:ResultCache",
     ("put",), True),
    ("harness.run_points", "repro.harness.parallel:ParallelRunner",
     ("run_points",), True),
]

#: The blocking service client, called by the service workload.
SERVE_LAYERS: List[LayerSpec] = [
    ("serve.submit", "repro.serve.client:ServeClient", ("submit",), True),
    ("serve.wait", "repro.serve.client:ServeClient", ("wait",), True),
    ("serve.result", "repro.serve.client:ServeClient",
     ("run_result",), True),
]

MODEL_LAYERS: List[LayerSpec] = [
    ("model.score", "repro.model.analytic:AnalyticModel", ("score",),
     True),
]


def _resolve(target: str):
    module_name, class_name = target.split(":")
    module = __import__(module_name, fromlist=[class_name])
    return getattr(module, class_name)


class LayerTracer:
    """Span recorder for one benchmark process.

    ``install()`` patches the layer classes; ``uninstall()`` restores
    them.  Objects built while installed keep whichever bound methods
    they captured at construction, so a traced unit of work must build
    its systems inside the installed window (every suite point builds a
    fresh system).
    """

    def __init__(self, specs: Sequence[LayerSpec]) -> None:
        self.specs = list(specs)
        self.layer_names = sorted({spec[0] for spec in specs})
        #: individually kept spans, in completion order
        self.spans: List[Dict] = []
        #: (name, coarse parent id) -> [calls, total_s, self_s, op id]
        self.aggregates: Dict[Tuple[str, Optional[int]], List] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._saved: List[Tuple[type, str, object]] = []

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        for name, target, methods, coarse in self.specs:
            cls = _resolve(target)
            for method in methods:
                original = cls.__dict__.get(method)
                function = getattr(cls, method)
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(name, function, coarse))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            if original is None:
                delattr(cls, method)
            else:
                setattr(cls, method, original)
        self._saved = []

    # -- spans ---------------------------------------------------------

    def _stack(self) -> List[List]:
        try:
            return self._local.stack
        except AttributeError:
            # root frame: [child seconds, coarse span id, op id]
            stack = self._local.stack = [[0.0, None, None]]
            return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    @contextlib.contextmanager
    def op(self, name: str, op_id: str):
        """One benchmark operation (point, job, explore call).

        Operation spans are the roots the layer spans hang off; their
        durations are the denominator of ``trace.covered_pct``.
        """
        stack = self._stack()
        parent = stack[-1]
        span_id = self._new_id()
        frame = [0.0, span_id, op_id]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            parent[0] += end - start
            self.spans.append({
                "id": span_id, "name": f"op.{name}", "start": start,
                "end": end, "parent": parent[1], "op": op_id,
                "self_s": end - start - frame[0]})

    def _wrap(self, name: str, function, coarse: bool):
        clock = time.perf_counter
        stack_of = self._stack
        aggregates = self.aggregates
        spans = self.spans
        new_id = self._new_id

        if coarse:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                stack = stack_of()
                parent = stack[-1]
                span_id = new_id()
                frame = [0.0, span_id, parent[2]]
                stack.append(frame)
                start = clock()
                try:
                    return function(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    duration = end - start
                    parent[0] += duration
                    spans.append({
                        "id": span_id, "name": name, "start": start,
                        "end": end, "parent": parent[1], "op": parent[2],
                        "self_s": duration - frame[0]})
            return wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1]
            frame = [0.0, parent[1], parent[2]]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent[0] += duration
                key = (name, parent[1])
                row = aggregates.get(key)
                if row is None:
                    row = aggregates[key] = [0, 0.0, 0.0, parent[2]]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[0]
        return wrapper

    # -- summaries -----------------------------------------------------

    def layer_totals(self, in_ops_only: bool = False
                     ) -> Dict[str, Dict[str, float]]:
        """Per layer span name: calls, total and self seconds.

        *in_ops_only* keeps spans caused by a benchmark operation on the
        same thread (the coverage numerator); otherwise spans on server
        threads count too.
        """
        totals = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                  for name in self.layer_names}
        for span in self.spans:
            if span["name"] in totals and (
                    span["op"] is not None or not in_ops_only):
                entry = totals[span["name"]]
                entry["calls"] += 1
                entry["total_s"] += span["end"] - span["start"]
                entry["self_s"] += span["self_s"]
        for (name, _parent), (calls, total, self_s, op) in \
                self.aggregates.items():
            if op is not None or not in_ops_only:
                entry = totals[name]
                entry["calls"] += calls
                entry["total_s"] += total
                entry["self_s"] += self_s
        return totals

    def spans_named(self, name: str) -> List[Dict]:
        return [span for span in self.spans if span["name"] == name]

    def covered_pct(self) -> float:
        """Share of operation time under named layer spans (self time)."""
        op_s = sum(span["end"] - span["start"] for span in self.spans
                   if span["name"].startswith("op."))
        if op_s <= 0:
            return 0.0
        layer_s = sum(entry["self_s"] for entry in
                      self.layer_totals(in_ops_only=True).values())
        return 100.0 * layer_s / op_s

    def export(self) -> Dict:
        """The span document written at exit."""
        return {
            "spans": self.spans,
            "aggregates": [
                {"name": name, "parent": parent, "op": row[3],
                 "calls": row[0], "total_s": row[1], "self_s": row[2]}
                for (name, parent), row in self.aggregates.items()],
        }

