"""A thread-safe, dependency-free service metrics registry.

This is the counters/histograms discipline of gem5-style stats dumps
applied to the *simulator-as-a-service*: the telemetry subsystem
(``repro.telemetry``) observes the simulated machine on its tick axis,
while this registry observes the serving process on the wall clock —
requests, jobs, cache traffic, executor health.

Three instrument kinds, all safe under concurrent use from threads
(every mutation takes the instrument's lock, so increments are exact,
never lost to a read-modify-write race):

* :class:`Counter` — monotonically increasing total;
* :class:`Gauge` — a settable level (queue depth, bytes on disk);
* :class:`Histogram` — fixed-bucket distribution with Prometheus
  semantics: bucket upper bounds are **inclusive** (an observation of
  exactly ``0.1`` lands in the ``le="0.1"`` bucket), lower bounds
  exclusive, and bucket counts are cumulative in the exposition.

Instruments live in labeled families (:class:`MetricFamily`): a family
is one name + help + kind + label-name tuple, and each distinct label
valuation is its own child instrument.  Registration is idempotent —
asking for an existing name returns the existing family, and asking
with a conflicting kind or label set raises, so two call sites can
never silently fork a metric.

:meth:`MetricsRegistry.render` emits the Prometheus text exposition
format (version 0.0.4), deterministically ordered (families by name,
children by label values) so scrapes diff cleanly;
:meth:`MetricsRegistry.snapshot` emits the same data as a JSON-able
document for ``GET /stats?v=2``.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricFamily",
           "MetricsRegistry"]


def _format_value(value: float) -> str:
    """Render a sample value: integral floats lose the trailing ``.0``."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(text: str) -> str:
    return (text.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counters only go up; got inc({amount!r})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A level that can go up, down, or be set outright."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution with inclusive upper bounds.

    *buckets* are the finite upper bounds, strictly ascending; the
    implicit ``+Inf`` bucket is always present.  An observation ``v``
    increments the first bucket whose bound satisfies ``v <= bound``
    (Prometheus ``le`` semantics); exposition counts are cumulative.
    """

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(
                f"bucket bounds must be strictly ascending: {bounds}")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # [+Inf] is last
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``[(upper_bound, cumulative_count), ...]`` ending at +Inf."""
        with self._lock:
            counts = list(self._counts)
        total = 0
        out: List[Tuple[float, int]] = []
        for bound, count in zip(self.bounds, counts):
            total += count
            out.append((bound, total))
        out.append((float("inf"), total + counts[-1]))
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One metric name with zero or more labeled child instruments."""

    def __init__(self, name: str, help_text: str, kind: str,
                 label_names: Tuple[str, ...] = (),
                 buckets: Optional[Sequence[float]] = None) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.help = help_text
        self.kind = kind
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets) if buckets is not None else None
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}

    def labels(self, **labels: str) -> Any:
        """The child instrument for one label valuation (created once)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}")
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = (Histogram(self.buckets)
                             if self.kind == "histogram"
                             else _KINDS[self.kind]())
                    self._children[key] = child
        return child

    def children(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """Children sorted by label values — deterministic exposition."""
        with self._lock:
            return sorted(self._children.items())

    def _label_text(self, values: Tuple[str, ...],
                    extra: str = "") -> str:
        parts = [f'{name}="{_escape_label(value)}"'
                 for name, value in zip(self.label_names, values)]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""


class MetricsRegistry:
    """A named set of metric families with one exposition surface."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    # -- registration --------------------------------------------------

    def family(self, name: str, help_text: str = "",
               kind: str = "counter",
               labels: Sequence[str] = (),
               buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        """Get-or-create a family; conflicting re-registration raises."""
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (existing.kind != kind
                        or existing.label_names != tuple(labels)):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.label_names}, "
                        f"requested {kind}{tuple(labels)}")
                return existing
            family = MetricFamily(name, help_text, kind, tuple(labels),
                                  buckets=buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labels: Sequence[str] = ()) -> Any:
        family = self.family(name, help_text, "counter", labels)
        return family if labels else family.labels()

    def gauge(self, name: str, help_text: str = "",
              labels: Sequence[str] = ()) -> Any:
        family = self.family(name, help_text, "gauge", labels)
        return family if labels else family.labels()

    def histogram(self, name: str, buckets: Sequence[float],
                  help_text: str = "",
                  labels: Sequence[str] = ()) -> Any:
        family = self.family(name, help_text, "histogram", labels,
                             buckets=buckets)
        return family if labels else family.labels()

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    # -- exposition ----------------------------------------------------

    def render(self) -> str:
        """Prometheus text exposition format 0.0.4, stable-ordered."""
        lines: List[str] = []
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            children = family.children()
            if not children:
                continue
            if family.help:
                lines.append(f"# HELP {name} "
                             f"{_escape_help(family.help)}")
            lines.append(f"# TYPE {name} {family.kind}")
            for values, child in children:
                if family.kind == "histogram":
                    for bound, count in child.cumulative_buckets():
                        le = ("+Inf" if bound == float("inf")
                              else _format_value(bound))
                        labels = family._label_text(
                            values, extra=f'le="{le}"')
                        lines.append(
                            f"{name}_bucket{labels} {count}")
                    labels = family._label_text(values)
                    lines.append(f"{name}_sum{labels} "
                                 f"{_format_value(child.sum)}")
                    lines.append(f"{name}_count{labels} {child.count}")
                else:
                    labels = family._label_text(values)
                    lines.append(f"{name}{labels} "
                                 f"{_format_value(child.value)}")
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> Dict[str, Any]:
        """The same data as :meth:`render`, as a JSON-able document."""
        document: Dict[str, Any] = {}
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            samples = []
            for values, child in family.children():
                labels = dict(zip(family.label_names, values))
                if family.kind == "histogram":
                    samples.append({
                        "labels": labels,
                        "buckets": {
                            ("+Inf" if bound == float("inf")
                             else _format_value(bound)): count
                            for bound, count in
                            child.cumulative_buckets()},
                        "sum": child.sum,
                        "count": child.count,
                    })
                else:
                    samples.append({"labels": labels,
                                    "value": child.value})
            if samples:
                document[name] = {"type": family.kind,
                                  "help": family.help,
                                  "samples": samples}
        return document
