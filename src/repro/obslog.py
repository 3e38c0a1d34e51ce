"""Structured logging for the serving path, correlation-id first.

One logging discipline for everything that serves traffic (scheduler,
HTTP server, cache, runner): a log record is an **event name plus
flat fields**, not a format string.  In ``json`` mode each record is
one JSON object per line on stderr — machine-parseable, ready for any
log pipeline; in ``text`` mode the same record renders as a compact
``key=value`` line for humans tailing a terminal.

The correlation id is the job fingerprint: every record the scheduler
emits about a job carries ``job=<fingerprint>``, from admission
through execution to settlement, so one ``grep`` (or one structured
filter) reconstructs a job's whole story across components.  HTTP
access records carry the same id whenever the route names a job.

Logging is **off by default** and adds one attribute read per call
site when disabled — the same guard discipline as the telemetry
tracer.  Enable with the ``REPRO_LOG`` environment variable
(``json`` or ``text``; anything else/empty is off) or programmatically
via :func:`configure` (the ``repro serve --log-json`` flag does the
latter).  Defaults change nothing observable: simulation results stay
bit-identical, CI asserts it.

::

    from repro import obslog
    log = obslog.get_logger("serve.scheduler")
    log.info("job_admitted", job=fingerprint, code="VA", mode="ccsm")
    # {"ts": 1754650000.123456, "level": "info",
    #  "component": "serve.scheduler", "event": "job_admitted",
    #  "job": "2a1f…", "code": "VA", "mode": "ccsm"}
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, Optional, TextIO

LOG_ENV = "REPRO_LOG"

#: accepted mode spellings → canonical mode
_MODES = {"json": "json", "jsonl": "json", "text": "text"}

_LEVELS = ("debug", "info", "warning", "error")


class _State:
    """Resolved-once logging state (mode + stream), reconfigurable."""

    __slots__ = ("mode", "stream")

    def __init__(self) -> None:
        self.mode: Optional[str] = None  # None: not resolved yet
        self.stream: Optional[TextIO] = None


_STATE = _State()


def configure(mode: Optional[str] = None,
              stream: Optional[TextIO] = None) -> str:
    """Set the logging mode explicitly (overrides ``REPRO_LOG``).

    *mode* is ``"json"``, ``"text"``, or anything falsy for off;
    *stream* defaults to ``sys.stderr`` and is resolved per record
    when left unset (so pytest's capture sees records).  Returns the
    canonical mode ("off" when disabled).
    """
    canonical = _MODES.get((mode or "").strip().lower(), "off")
    _STATE.mode = canonical
    _STATE.stream = stream
    _refresh_enabled()
    return canonical


def reset() -> None:
    """Back to environment-resolved, lazily — used by tests."""
    _STATE.mode = None
    _STATE.stream = None
    _refresh_enabled()


def resolved_mode() -> str:
    """The active mode: explicit configuration, else ``REPRO_LOG``."""
    if _STATE.mode is None:
        _STATE.mode = _MODES.get(
            os.environ.get(LOG_ENV, "").strip().lower(), "off")
        _refresh_enabled()
    return _STATE.mode


def _refresh_enabled() -> None:
    enabled = _STATE.mode is not None and _STATE.mode != "off"
    for logger in _LOGGERS.values():
        logger.enabled = enabled


def _render_text(record: Dict[str, Any]) -> str:
    timestamp = time.strftime("%H:%M:%S",
                              time.localtime(record["ts"]))
    head = (f"{timestamp} {record['level'].upper():<7} "
            f"{record['component']} {record['event']}")
    fields = " ".join(
        f"{key}={value}" for key, value in record.items()
        if key not in ("ts", "level", "component", "event"))
    return f"{head} {fields}" if fields else head


class Logger:
    """One component's structured logger.

    ``enabled`` is maintained by :func:`configure`/:func:`reset`, so
    the disabled fast path is a single attribute read — call sites
    never pay for string formatting that nobody will see.
    """

    __slots__ = ("component", "enabled")

    def __init__(self, component: str) -> None:
        self.component = component
        self.enabled = resolved_mode() != "off"

    def log(self, level: str, event: str, **fields: Any) -> None:
        if not self.enabled:
            return
        record: Dict[str, Any] = {
            "ts": round(time.time(), 6),
            "level": level,
            "component": self.component,
            "event": event,
        }
        record.update(fields)
        stream = _STATE.stream or sys.stderr
        if _STATE.mode == "json":
            line = json.dumps(record, default=repr)
        else:
            line = _render_text(record)
        try:
            stream.write(line + "\n")
            stream.flush()
        except (ValueError, OSError):
            pass  # a closed stderr must never take the service down

    def debug(self, event: str, **fields: Any) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.log("error", event, **fields)


_LOGGERS: Dict[str, Logger] = {}


def get_logger(component: str) -> Logger:
    """The (process-wide) logger for *component*, created once."""
    logger = _LOGGERS.get(component)
    if logger is None:
        logger = Logger(component)
        _LOGGERS[component] = logger
    return logger
