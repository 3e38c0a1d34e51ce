"""Telemetry knobs, resolved once per run from CLI flags or a job payload.

A :class:`TelemetrySettings` travels from the CLI (``--trace-out``,
``--trace-jsonl``, ``--sample-interval``) or a service job payload
down through the harness into
:class:`~repro.core.system.IntegratedSystem`.  Its
``fingerprint_payload`` joins the result-cache key whenever it is
non-default, so a traced or sampled run can never collide with (or be
satisfied by) a plain cached one — while all-default settings add
nothing, preserving every pre-telemetry cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.telemetry.tracer import DEFAULT_CAPACITY


@dataclass(frozen=True)
class TelemetrySettings:
    """What to record during a run.  The default records nothing."""

    trace: bool = False
    sample_interval: int = 0
    trace_capacity: int = DEFAULT_CAPACITY

    @property
    def active(self) -> bool:
        """True when any recording is requested."""
        return self.trace or self.sample_interval > 0

    def fingerprint_payload(self) -> Optional[dict]:
        """Cache-key contribution, or ``None`` when fully default."""
        if not self.active:
            return None
        return {
            "trace": self.trace,
            "sample_interval": self.sample_interval,
        }
