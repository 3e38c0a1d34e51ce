"""Persisting experiment results as JSON.

The figure benches can dump their data points for external plotting or
regression tracking; :func:`save_comparisons` defines the stable on-disk
schema, versioned by ``SCHEMA_VERSION``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Union

from repro.harness.runner import BenchmarkComparison
from repro.telemetry.manifest import run_manifest

SCHEMA_VERSION = 1


def comparison_to_dict(comparison: BenchmarkComparison) -> dict:
    """Flatten one comparison into JSON-friendly primitives."""
    return {
        "code": comparison.code,
        "input_size": comparison.input_size,
        "speedup": comparison.speedup,
        "ccsm": {
            "total_ticks": comparison.ccsm.total_ticks,
            "gpu_l2_accesses": comparison.ccsm.gpu_l2.accesses,
            "gpu_l2_misses": comparison.ccsm.gpu_l2.misses,
            "gpu_l2_compulsory": comparison.ccsm.gpu_l2.compulsory_misses,
            "gpu_l2_miss_rate": comparison.ccsm_miss_rate,
            "network_messages": comparison.ccsm.network_messages,
        },
        "direct_store": {
            "total_ticks": comparison.direct_store.total_ticks,
            "gpu_l2_accesses": comparison.direct_store.gpu_l2.accesses,
            "gpu_l2_misses": comparison.direct_store.gpu_l2.misses,
            "gpu_l2_compulsory":
                comparison.direct_store.gpu_l2.compulsory_misses,
            "gpu_l2_miss_rate": comparison.ds_miss_rate,
            "network_messages": comparison.direct_store.network_messages,
            "forwarded_stores":
                comparison.direct_store.ds_forwarded_stores,
        },
    }


def save_comparisons(path: Union[str, Path], label: str,
                     comparisons: Iterable[BenchmarkComparison]) -> Path:
    """Write a labelled result set; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        # additive key: readers that predate it ignore it, and the
        # schema version can stay put
        "manifest": run_manifest(),
        "results": [comparison_to_dict(c) for c in comparisons],
    }
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path
