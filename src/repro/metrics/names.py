"""The metric catalog: every service metric's name, kind, and labels.

This module is the **single naming source** for the serving path.
``GET /metrics``, ``GET /stats?v=2``, ``repro cache stats``, ``repro
top``, and the CI smoke job all refer to these constants, so the CLI
and the endpoints can never drift apart on a spelling.

Naming follows the Prometheus conventions: ``repro_`` prefix, base
units (seconds, bytes), ``_total`` suffix on counters, label values
kept low-cardinality (route *patterns*, never raw paths; job *states*,
never job ids — a job id is a correlation id, which belongs in the
structured log, not in a label).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.metrics.registry import MetricsRegistry

#: wall-clock latency bucket upper bounds (seconds) — shared by the
#: per-job, per-batch, and per-request histograms so quantiles from any
#: of them line up on the same grid
LATENCY_BUCKETS_S = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0)

#: size bucket upper bounds (bytes): 1 KiB … 1 GiB in powers of four
SIZE_BUCKETS_BYTES = tuple(1024 * 4 ** n for n in range(11))


@dataclass(frozen=True)
class MetricSpec:
    """One catalog entry: everything needed to declare the metric."""

    name: str
    kind: str
    help: str
    labels: Tuple[str, ...] = ()
    buckets: Optional[Tuple[float, ...]] = None


# -- scheduler ---------------------------------------------------------

JOBS_SUBMITTED = "repro_jobs_submitted_total"
JOBS_DEDUPLICATED = "repro_jobs_deduplicated_total"
JOBS_SETTLED = "repro_jobs_settled_total"
JOBS_BY_STATE = "repro_jobs"
QUEUE_DEPTH = "repro_queue_depth"
SIMULATIONS = "repro_simulations_total"
EXECUTOR_DEGRADED = "repro_executor_degraded"
JOB_WALL_SECONDS = "repro_job_wall_seconds"
UPTIME_SECONDS = "repro_uptime_seconds"

# -- result cache ------------------------------------------------------

CACHE_HITS = "repro_cache_hits_total"
CACHE_MISSES = "repro_cache_misses_total"
CACHE_PUTS = "repro_cache_puts_total"
CACHE_PUT_ERRORS = "repro_cache_put_errors_total"
CACHE_EVICTIONS = "repro_cache_evictions_total"
CACHE_COMPACTIONS = "repro_cache_compactions_total"
CACHE_ENTRIES = "repro_cache_entries"
CACHE_DISK_BYTES = "repro_cache_disk_bytes"
CACHE_ENTRY_BYTES = "repro_cache_entry_bytes"

# -- parallel runner ---------------------------------------------------

RUNNER_POINTS = "repro_runner_points_total"
RUNNER_BATCHES = "repro_runner_batches_total"
RUNNER_BATCH_SECONDS = "repro_runner_batch_seconds"

# -- HTTP server -------------------------------------------------------

HTTP_REQUESTS = "repro_http_requests_total"
HTTP_REQUEST_SECONDS = "repro_http_request_seconds"


CATALOG: Dict[str, MetricSpec] = {spec.name: spec for spec in (
    MetricSpec(JOBS_SUBMITTED, "counter",
               "Job submissions accepted (including deduplicated ones)"),
    MetricSpec(JOBS_DEDUPLICATED, "counter",
               "Submissions absorbed by an existing job without a "
               "simulation", labels=("kind",)),  # inflight | completed
    MetricSpec(JOBS_SETTLED, "counter",
               "Jobs reaching a terminal state",
               labels=("state",)),  # done | failed | cancelled | timeout
    MetricSpec(JOBS_BY_STATE, "gauge",
               "Jobs currently in the job table, by state",
               labels=("state",)),
    MetricSpec(QUEUE_DEPTH, "gauge",
               "Jobs admitted but not yet running"),
    MetricSpec(SIMULATIONS, "counter",
               "Simulations actually executed (ground truth for "
               "exactly-once dedupe)"),
    MetricSpec(EXECUTOR_DEGRADED, "gauge",
               "1 while a process-pool server is degraded to threads"),
    MetricSpec(JOB_WALL_SECONDS, "histogram",
               "Submit-to-terminal wall time per job",
               labels=("state",), buckets=LATENCY_BUCKETS_S),
    MetricSpec(UPTIME_SECONDS, "gauge",
               "Seconds since the scheduler started"),
    MetricSpec(CACHE_HITS, "counter",
               "Result-cache lookups served from disk"),
    MetricSpec(CACHE_MISSES, "counter",
               "Result-cache lookups that missed"),
    MetricSpec(CACHE_PUTS, "counter",
               "Finished runs written to the result cache"),
    MetricSpec(CACHE_PUT_ERRORS, "counter",
               "Cache writes that failed with an OS error (the run's "
               "result is still returned)"),
    MetricSpec(CACHE_EVICTIONS, "counter",
               "Entries deleted to enforce the byte budget"),
    MetricSpec(CACHE_COMPACTIONS, "counter",
               "Compaction sweeps executed"),
    MetricSpec(CACHE_ENTRIES, "gauge",
               "Entries on disk at the last scan"),
    MetricSpec(CACHE_DISK_BYTES, "gauge",
               "Bytes on disk at the last scan"),
    MetricSpec(CACHE_ENTRY_BYTES, "histogram",
               "Size of entries written to the cache",
               buckets=SIZE_BUCKETS_BYTES),
    MetricSpec(RUNNER_POINTS, "counter",
               "Simulation points resolved by the parallel runner",
               labels=("source",)),  # cache | pool | serial
    MetricSpec(RUNNER_BATCHES, "counter",
               "run_points batches executed"),
    MetricSpec(RUNNER_BATCH_SECONDS, "histogram",
               "Wall time of one run_points batch",
               buckets=LATENCY_BUCKETS_S),
    MetricSpec(HTTP_REQUESTS, "counter",
               "HTTP requests served, by route pattern and status",
               labels=("route", "method", "status")),
    MetricSpec(HTTP_REQUEST_SECONDS, "histogram",
               "Request handling wall time, by route pattern",
               labels=("route",), buckets=LATENCY_BUCKETS_S),
)}

#: the /metrics families the scheduler owns (refreshing gauges before a
#: scrape walks this list)
SCHEDULER_FAMILIES = (JOBS_SUBMITTED, JOBS_DEDUPLICATED, JOBS_SETTLED,
                      JOBS_BY_STATE, QUEUE_DEPTH, SIMULATIONS,
                      EXECUTOR_DEGRADED, JOB_WALL_SECONDS,
                      UPTIME_SECONDS)

#: the families `repro cache stats` reports next to its scan columns
CACHE_FAMILIES = (CACHE_HITS, CACHE_MISSES, CACHE_PUTS,
                  CACHE_PUT_ERRORS, CACHE_EVICTIONS, CACHE_COMPACTIONS,
                  CACHE_ENTRIES, CACHE_DISK_BYTES)


def declare(registry: MetricsRegistry, name: str) -> Any:
    """Declare *name* from the catalog on *registry*.

    Returns the bare instrument for an unlabeled metric, the family
    for a labeled one.  Idempotent, like the registry itself.
    """
    spec = CATALOG[name]
    family = registry.family(spec.name, spec.help, spec.kind,
                             spec.labels, buckets=spec.buckets)
    return family if spec.labels else family.labels()
