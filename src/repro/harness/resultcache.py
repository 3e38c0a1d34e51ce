"""Content-addressed persistent cache of benchmark runs.

Every simulation is deterministic: the same (configuration, benchmark,
input size, mode) always produces the same :class:`RunResult`.  The
cache exploits that by storing finished runs as JSON under a cache
directory, keyed by a stable fingerprint of everything that influences
the outcome.  A config tweak, a benchmark change, or a bump of
:data:`CACHE_SCHEMA_VERSION` changes the fingerprint, so stale entries
are never returned — they simply stop being addressed and the point is
recomputed.

Layout: entries are sharded by fingerprint prefix —
``<fp[:2]>/<fingerprint>.json`` under the cache root (default
``.repro_cache/`` in the working directory, overridable with
``REPRO_CACHE_DIR`` or the constructor) — so many cooperating workers
or hosts can share one cache without a thousand-file flat directory.
Entries written by older versions live flat at
``<fingerprint>.json``; reads fall through to that legacy location
transparently, so upgrading never invalidates a warm cache.  Corrupted
or truncated entry files are treated as misses and deleted.
``REPRO_NO_CACHE=1`` disables the default cache entirely.

Writers stage entries as ``<fp>.<pid>.<seq>.tmp`` and atomically
rename into place, so concurrent writers of the same fingerprint (two
pool workers, two hosts on a shared filesystem) never interleave and
a crash never leaves a torn entry.  Orphaned temp files from crashed
writers are swept by :meth:`ResultCache.clear` and
:meth:`ResultCache.compact`.

Eviction: :meth:`ResultCache.compact` enforces an optional byte budget
(constructor argument or ``REPRO_CACHE_BYTES``) by deleting entries
oldest-mtime-first — LRU, since :meth:`ResultCache.get` refreshes the
mtime of every entry it serves.  :meth:`ResultCache.scan` reports
entry/byte/shard counts as a :class:`CacheStats`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
import time
from pathlib import Path
from typing import Iterator, List, Optional, Union

from repro import obslog
from repro.core.config import SystemConfig
from repro.core.metrics import RunResult
from repro.core.protocol_mode import CoherenceMode
from repro.metrics import REGISTRY
from repro.metrics import names as metric_names
from repro.telemetry import TelemetrySettings
from repro.telemetry.manifest import run_manifest

#: bump when RunResult serialization or simulation semantics change in a
#: way that invalidates previously stored runs
CACHE_SCHEMA_VERSION = 1

#: default cache directory, relative to the working directory
DEFAULT_CACHE_DIR = ".repro_cache"

#: environment overrides
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
NO_CACHE_ENV = "REPRO_NO_CACHE"
CACHE_BYTES_ENV = "REPRO_CACHE_BYTES"

#: how many leading fingerprint characters name the shard directory
SHARD_PREFIX_LEN = 2

#: a ``.tmp`` file older than this is an orphan from a crashed writer;
#: younger ones may belong to an in-progress put and are left alone
STALE_TMP_SECONDS = 600.0

#: per-process sequence for unique temp names (pid alone is not enough:
#: one process may write the same fingerprint from several threads)
_TMP_COUNTER = itertools.count()

_LOG = obslog.get_logger("harness.resultcache")

#: process-wide service metrics (docs/OBSERVABILITY.md); per-instance
#: hit/miss attributes stay — they scope one cache object, these
#: aggregate the process
_METRIC_HITS = metric_names.declare(REGISTRY, metric_names.CACHE_HITS)
_METRIC_MISSES = metric_names.declare(REGISTRY,
                                      metric_names.CACHE_MISSES)
_METRIC_PUTS = metric_names.declare(REGISTRY, metric_names.CACHE_PUTS)
_METRIC_PUT_ERRORS = metric_names.declare(REGISTRY,
                                          metric_names.CACHE_PUT_ERRORS)
_METRIC_EVICTIONS = metric_names.declare(REGISTRY,
                                         metric_names.CACHE_EVICTIONS)
_METRIC_COMPACTIONS = metric_names.declare(
    REGISTRY, metric_names.CACHE_COMPACTIONS)
_METRIC_ENTRIES = metric_names.declare(REGISTRY,
                                       metric_names.CACHE_ENTRIES)
_METRIC_DISK_BYTES = metric_names.declare(REGISTRY,
                                          metric_names.CACHE_DISK_BYTES)
_METRIC_ENTRY_BYTES = metric_names.declare(
    REGISTRY, metric_names.CACHE_ENTRY_BYTES)


def config_fingerprint_payload(config: SystemConfig) -> dict:
    """The configuration contents that feed the fingerprint."""
    return dataclasses.asdict(config)


def run_fingerprint(code: str, input_size: str, mode: CoherenceMode,
                    config: SystemConfig,
                    telemetry: Optional[TelemetrySettings] = None) -> str:
    """Stable hex fingerprint of one simulation point.

    Any change to the configuration dataclasses (new fields included),
    the benchmark identity, the mode, or the cache schema version yields
    a different fingerprint.  Non-default telemetry settings join the
    payload — a sampled run carries a time-series a plain run lacks, so
    the two must never share an entry — while all-default telemetry
    contributes nothing, keeping every pre-telemetry fingerprint valid.
    """
    payload = {
        "schema_version": CACHE_SCHEMA_VERSION,
        "code": code.upper(),
        "input_size": input_size,
        "mode": mode.value,
        "config": config_fingerprint_payload(config),
    }
    if telemetry is not None:
        telemetry_payload = telemetry.fingerprint_payload()
        if telemetry_payload is not None:
            payload["telemetry"] = telemetry_payload
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """One scan of the cache directory (see :meth:`ResultCache.scan`)."""

    entries: int = 0
    total_bytes: int = 0
    shard_dirs: int = 0
    legacy_entries: int = 0
    stale_tmp: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def resolve_byte_budget(byte_budget: Optional[int] = None) -> Optional[int]:
    """Eviction budget: explicit argument > ``REPRO_CACHE_BYTES`` > none.

    A negative budget would evict every entry, the one just written
    included, so it is rejected like a non-integer; 0 stays valid.
    """
    if byte_budget is not None:
        value, source = byte_budget, "byte budget"
    else:
        value = os.environ.get(CACHE_BYTES_ENV, "").strip()
        if not value:
            return None
        source = CACHE_BYTES_ENV
    try:
        budget = int(value)
    except ValueError:
        budget = None
    if budget is None or budget < 0:
        raise ValueError(
            f"{source} must be a non-negative integer, got {value!r}")
    return budget


class ResultCache:
    """On-disk store of :class:`RunResult` keyed by run fingerprint."""

    def __init__(self, directory: Union[str, Path, None] = None,
                 byte_budget: Optional[int] = None) -> None:
        if directory is None:
            directory = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.directory = Path(directory)
        self.byte_budget = resolve_byte_budget(byte_budget)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- layout --------------------------------------------------------

    def _entry_path(self, fingerprint: str) -> Path:
        return (self.directory / fingerprint[:SHARD_PREFIX_LEN]
                / f"{fingerprint}.json")

    def entry_path(self, fingerprint: str) -> Path:
        """Where the entry for *fingerprint* lives (or would live)."""
        return self._entry_path(fingerprint)

    def _legacy_path(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}.json"

    def _iter_entries(self) -> Iterator[Path]:
        """Every entry file: sharded first, then legacy flat ones."""
        if not self.directory.is_dir():
            return
        yield from self.directory.glob(
            "?" * SHARD_PREFIX_LEN + "/*.json")
        yield from self.directory.glob("*.json")

    def _iter_tmp(self) -> Iterator[Path]:
        if not self.directory.is_dir():
            return
        yield from self.directory.glob("?" * SHARD_PREFIX_LEN + "/*.tmp")
        yield from self.directory.glob("*.tmp")

    # -- read / write --------------------------------------------------

    def get(self, code: str, input_size: str, mode: CoherenceMode,
            config: SystemConfig,
            telemetry: Optional[TelemetrySettings] = None,
            ) -> Optional[RunResult]:
        """Return the cached run, or ``None`` on a miss.

        The sharded location is tried first, then the legacy flat one
        (entries written before sharding), so old caches stay warm.  A
        corrupted entry (bad JSON, missing fields, wrong schema) is
        removed and the lookup falls through.  Served entries get their
        mtime refreshed so eviction is LRU rather than FIFO.
        """
        fingerprint = run_fingerprint(code, input_size, mode, config,
                                      telemetry)
        for path in (self._entry_path(fingerprint),
                     self._legacy_path(fingerprint)):
            try:
                document = json.loads(path.read_text())
                if document.get("schema_version") != CACHE_SCHEMA_VERSION:
                    raise ValueError("schema version mismatch")
                result = RunResult.from_dict(document["result"])
            except FileNotFoundError:
                continue
            except (ValueError, KeyError, TypeError, OSError):
                path.unlink(missing_ok=True)
                continue
            self.hits += 1
            _METRIC_HITS.inc()
            try:
                os.utime(path)  # mark recently-used for LRU eviction
            except OSError:
                pass
            return result
        self.misses += 1
        _METRIC_MISSES.inc()
        return None

    def put(self, code: str, input_size: str, mode: CoherenceMode,
            config: SystemConfig, result: RunResult,
            telemetry: Optional[TelemetrySettings] = None) -> Path:
        """Store one finished run; returns the entry path.

        A failed write (full disk, read-only filesystem) leaves no temp
        file behind, counts ``repro_cache_put_errors_total``, is logged
        with the run fingerprint, and re-raises the ``OSError``.
        """
        fingerprint = run_fingerprint(code, input_size, mode, config,
                                      telemetry)
        path = self._entry_path(fingerprint)
        document = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "code": code.upper(),
            "input_size": input_size,
            "mode": mode.value,
            "result": result.to_dict(),
            # provenance: which code/interpreter produced this entry
            "manifest": run_manifest(config),
        }
        # write-then-rename so a crashed writer never leaves a torn
        # entry; the temp name is unique per (pid, sequence) so two
        # writers finishing the same fingerprint never interleave
        tmp = path.with_name(
            f"{fingerprint}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp")
        entry_text = json.dumps(document)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(entry_text)
            tmp.replace(path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
            _METRIC_PUT_ERRORS.inc()
            _LOG.warning("cache_put_failed", job=fingerprint,
                         error=repr(exc))
            raise
        _METRIC_PUTS.inc()
        _METRIC_ENTRY_BYTES.observe(len(entry_text))
        if self.byte_budget is not None:
            self.compact()
        return path

    # -- maintenance ---------------------------------------------------

    def scan(self) -> CacheStats:
        """Walk the cache directory once and report what is in it."""
        entries = 0
        total_bytes = 0
        legacy = 0
        shard_dirs = set()
        for path in self._iter_entries():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            entries += 1
            total_bytes += size
            if path.parent == self.directory:
                legacy += 1
            else:
                shard_dirs.add(path.parent.name)
        stale_tmp = sum(1 for tmp in self._iter_tmp()
                        if self._tmp_is_stale(tmp))
        _METRIC_ENTRIES.set(entries)
        _METRIC_DISK_BYTES.set(total_bytes)
        return CacheStats(entries=entries, total_bytes=total_bytes,
                          shard_dirs=len(shard_dirs),
                          legacy_entries=legacy, stale_tmp=stale_tmp)

    @staticmethod
    def _tmp_is_stale(tmp: Path,
                      max_age_s: float = STALE_TMP_SECONDS) -> bool:
        try:
            return time.time() - tmp.stat().st_mtime >= max_age_s
        except OSError:
            return False

    def compact(self, byte_budget: Optional[int] = None,
                stale_tmp_s: float = STALE_TMP_SECONDS) -> int:
        """Sweep orphaned temp files and enforce the byte budget.

        Temp files older than *stale_tmp_s* are deleted (a crashed
        writer never comes back for them; a live one renames within
        milliseconds).  Then, if a budget applies (argument, else the
        constructor/``REPRO_CACHE_BYTES`` budget), entries are deleted
        oldest-mtime-first — ties broken by filename so the order is
        deterministic — until the cache fits.  Returns the number of
        entries evicted.
        """
        budget = (self.byte_budget if byte_budget is None
                  else resolve_byte_budget(byte_budget))
        _METRIC_COMPACTIONS.inc()
        for tmp in self._iter_tmp():
            if self._tmp_is_stale(tmp, stale_tmp_s):
                tmp.unlink(missing_ok=True)
        if budget is None:
            return 0
        entries: List[tuple] = []
        total = 0
        for path in self._iter_entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime_ns, path.name, path,
                            stat.st_size))
            total += stat.st_size
        entries.sort(key=lambda item: (item[0], item[1]))
        evicted = 0
        for _mtime, _name, path, size in entries:
            if total <= budget:
                break
            path.unlink(missing_ok=True)
            total -= size
            evicted += 1
        self.evictions += evicted
        if evicted:
            _METRIC_EVICTIONS.inc(evicted)
        return evicted

    def clear(self) -> int:
        """Delete every entry (and any temp file); returns entries removed."""
        removed = 0
        for entry in self._iter_entries():
            entry.unlink(missing_ok=True)
            removed += 1
        for tmp in self._iter_tmp():
            tmp.unlink(missing_ok=True)
        if self.directory.is_dir():
            for shard in self.directory.iterdir():
                if (shard.is_dir()
                        and len(shard.name) == SHARD_PREFIX_LEN):
                    try:
                        shard.rmdir()  # only succeeds when empty
                    except OSError:
                        pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_entries())

    def __repr__(self) -> str:
        return (f"ResultCache({self.directory}, hits={self.hits}, "
                f"misses={self.misses})")


def default_cache(directory: Union[str, Path, None] = None,
                  ) -> Optional[ResultCache]:
    """The cache the harness uses unless told otherwise.

    Returns ``None`` (caching disabled) when ``REPRO_NO_CACHE`` is set
    to anything truthy.
    """
    if os.environ.get(NO_CACHE_ENV, "").strip() not in ("", "0"):
        return None
    return ResultCache(directory)
