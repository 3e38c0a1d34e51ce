"""Tests for the persistent result cache."""

import dataclasses
import json
import os

import pytest

from repro.core.metrics import CacheSnapshot, RunResult
from repro.core.protocol_mode import CoherenceMode
from repro.harness import resultcache
from repro.harness.resultcache import (
    SHARD_PREFIX_LEN,
    ResultCache,
    default_cache,
    run_fingerprint,
)
from repro.harness.runner import run_benchmark


def _result(ticks=123):
    return RunResult(
        workload="VA/small", mode="ccsm", total_ticks=ticks,
        gpu_l2=CacheSnapshot(accesses=10, hits=7, misses=3,
                             compulsory_misses=2, evictions=1),
        network_messages=42, network_bytes=4096, ds_messages=5,
        ds_forwarded_stores=4, dram_reads=9, dram_writes=8,
        cpu_loads=100, cpu_stores=50, events_fired=1000,
        stats={"xbar.messages": 42.0, "dram.reads": 9.0})


class TestRoundTrip:
    def test_run_result_round_trips_losslessly(self):
        original = _result()
        restored = RunResult.from_dict(
            json.loads(json.dumps(original.to_dict())))
        assert restored == original

    def test_real_run_round_trips(self, tiny_config):
        result = run_benchmark(
            "VA", "small", CoherenceMode.CCSM,
            dataclasses.replace(tiny_config, track_values=False))
        assert RunResult.from_dict(result.to_dict()) == result


class TestFingerprint:
    def test_stable_for_equal_inputs(self, tiny_config):
        a = run_fingerprint("VA", "small", CoherenceMode.CCSM, tiny_config)
        b = run_fingerprint("VA", "small", CoherenceMode.CCSM, tiny_config)
        assert a == b

    def test_code_case_insensitive(self, tiny_config):
        assert (run_fingerprint("va", "small", CoherenceMode.CCSM,
                                tiny_config)
                == run_fingerprint("VA", "small", CoherenceMode.CCSM,
                                   tiny_config))

    def test_mode_changes_fingerprint(self, tiny_config):
        assert (run_fingerprint("VA", "small", CoherenceMode.CCSM,
                                tiny_config)
                != run_fingerprint("VA", "small",
                                   CoherenceMode.DIRECT_STORE,
                                   tiny_config))

    def test_config_change_changes_fingerprint(self, tiny_config):
        base = run_fingerprint("VA", "small", CoherenceMode.CCSM,
                               tiny_config)
        tweaked = dataclasses.replace(tiny_config, line_size=256)
        assert run_fingerprint("VA", "small", CoherenceMode.CCSM,
                               tweaked) != base

    def test_nested_config_change_changes_fingerprint(self, tiny_config):
        import copy
        base = run_fingerprint("VA", "small", CoherenceMode.CCSM,
                               tiny_config)
        tweaked = copy.deepcopy(tiny_config)
        tweaked.network.ds_latency_cycles += 1
        assert run_fingerprint("VA", "small", CoherenceMode.CCSM,
                               tweaked) != base


class TestResultCache:
    def test_miss_then_hit(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("VA", "small", CoherenceMode.CCSM,
                         tiny_config) is None
        assert cache.misses == 1
        cache.put("VA", "small", CoherenceMode.CCSM, tiny_config,
                  _result())
        hit = cache.get("VA", "small", CoherenceMode.CCSM, tiny_config)
        assert hit is not None and hit.total_ticks == 123
        assert cache.hits == 1

    def test_config_change_invalidates(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("VA", "small", CoherenceMode.CCSM, tiny_config,
                  _result())
        other = dataclasses.replace(tiny_config, line_size=256)
        assert cache.get("VA", "small", CoherenceMode.CCSM, other) is None

    def test_schema_version_bump_invalidates(self, tiny_config, tmp_path,
                                             monkeypatch):
        cache = ResultCache(tmp_path)
        cache.put("VA", "small", CoherenceMode.CCSM, tiny_config,
                  _result())
        monkeypatch.setattr(resultcache, "CACHE_SCHEMA_VERSION",
                            resultcache.CACHE_SCHEMA_VERSION + 1)
        assert cache.get("VA", "small", CoherenceMode.CCSM,
                         tiny_config) is None

    def test_corrupted_entry_recovers(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("VA", "small", CoherenceMode.CCSM, tiny_config,
                         _result())
        path.write_text("{ not json")
        assert cache.get("VA", "small", CoherenceMode.CCSM,
                         tiny_config) is None
        assert not path.exists()  # bad entry removed
        # and a fresh put works again
        cache.put("VA", "small", CoherenceMode.CCSM, tiny_config,
                  _result(456))
        hit = cache.get("VA", "small", CoherenceMode.CCSM, tiny_config)
        assert hit.total_ticks == 456

    def test_truncated_payload_recovers(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("VA", "small", CoherenceMode.CCSM, tiny_config,
                         _result())
        document = json.loads(path.read_text())
        del document["result"]["total_ticks"]
        path.write_text(json.dumps(document))
        assert cache.get("VA", "small", CoherenceMode.CCSM,
                         tiny_config) is None

    def test_clear_and_len(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put("VA", "small", CoherenceMode.CCSM, tiny_config,
                  _result())
        cache.put("VA", "small", CoherenceMode.DIRECT_STORE, tiny_config,
                  _result())
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestShardedLayout:
    def test_put_writes_under_shard_prefix(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("VA", "small", CoherenceMode.CCSM, tiny_config,
                         _result())
        fingerprint = run_fingerprint("VA", "small", CoherenceMode.CCSM,
                                      tiny_config)
        assert path.parent == tmp_path / fingerprint[:SHARD_PREFIX_LEN]
        assert path.name == f"{fingerprint}.json"

    def test_legacy_flat_entry_read_through(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        sharded = cache.put("VA", "small", CoherenceMode.CCSM,
                            tiny_config, _result(777))
        # demote the entry to the pre-sharding flat location
        flat = tmp_path / sharded.name
        sharded.rename(flat)
        hit = ResultCache(tmp_path).get("VA", "small", CoherenceMode.CCSM,
                                        tiny_config)
        assert hit is not None and hit.total_ticks == 777
        assert flat.exists()  # read-through does not destroy the entry

    def test_sharded_entry_wins_over_legacy(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        sharded = cache.put("VA", "small", CoherenceMode.CCSM,
                            tiny_config, _result(111))
        stale_flat = tmp_path / sharded.name
        stale_flat.write_text(sharded.read_text().replace(
            '"total_ticks": 111', '"total_ticks": 999'))
        hit = cache.get("VA", "small", CoherenceMode.CCSM, tiny_config)
        assert hit.total_ticks == 111

    def test_len_and_clear_span_both_layouts(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        sharded = cache.put("VA", "small", CoherenceMode.CCSM,
                            tiny_config, _result())
        other = cache.put("VA", "small", CoherenceMode.DIRECT_STORE,
                          tiny_config, _result())
        other.rename(tmp_path / other.name)  # make one legacy-flat
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
        assert not sharded.parent.exists()  # empty shard dir removed

    def test_corrupt_sharded_falls_through_to_legacy(self, tiny_config,
                                                     tmp_path):
        cache = ResultCache(tmp_path)
        sharded = cache.put("VA", "small", CoherenceMode.CCSM,
                            tiny_config, _result(42))
        flat = tmp_path / sharded.name
        flat.write_text(sharded.read_text())
        sharded.write_text("{ torn")
        hit = cache.get("VA", "small", CoherenceMode.CCSM, tiny_config)
        assert hit.total_ticks == 42
        assert not sharded.exists()  # the corrupt copy was removed

    def test_scan_reports_layout(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        sharded = cache.put("VA", "small", CoherenceMode.CCSM,
                            tiny_config, _result())
        legacy = cache.put("VA", "small", CoherenceMode.DIRECT_STORE,
                           tiny_config, _result())
        legacy.rename(tmp_path / legacy.name)
        stats = cache.scan()
        assert stats.entries == 2
        assert stats.legacy_entries == 1
        assert stats.shard_dirs == 1
        assert stats.total_bytes == (
            sharded.stat().st_size
            + (tmp_path / legacy.name).stat().st_size)
        assert stats.stale_tmp == 0


class TestTempFiles:
    def test_tmp_names_unique_per_writer(self, tiny_config, tmp_path,
                                         monkeypatch):
        from pathlib import Path
        staged = []
        original = Path.write_text

        def spy(self, *args, **kwargs):
            if self.suffix == ".tmp":
                staged.append(self.name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", spy)
        cache = ResultCache(tmp_path)
        cache.put("VA", "small", CoherenceMode.CCSM, tiny_config,
                  _result())
        cache.put("VA", "small", CoherenceMode.CCSM, tiny_config,
                  _result())  # same fingerprint, second writer
        assert len(staged) == 2
        assert len(set(staged)) == 2  # never the same temp name
        assert all(f".{os.getpid()}." in name for name in staged)

    def test_put_leaves_no_tmp_behind(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("VA", "small", CoherenceMode.CCSM, tiny_config,
                  _result())
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_failed_put_cleans_up_and_counts(self, tiny_config, tmp_path,
                                             full_disk):
        self._check_failed_put(tiny_config, tmp_path, full_disk)

    def test_failed_put_on_read_only_disk(self, tiny_config, tmp_path,
                                          read_only_disk):
        self._check_failed_put(tiny_config, tmp_path, read_only_disk)

    @staticmethod
    def _check_failed_put(tiny_config, tmp_path, code):
        from repro.metrics import REGISTRY, names
        errors = REGISTRY.get(names.CACHE_PUT_ERRORS).labels()
        before = errors.value
        cache = ResultCache(tmp_path)
        with pytest.raises(OSError) as failure:
            cache.put("VA", "small", CoherenceMode.CCSM, tiny_config,
                      _result())
        assert failure.value.errno == code
        assert list(tmp_path.rglob("*.tmp")) == []
        assert cache.scan().entries == 0
        assert errors.value == before + 1

    def test_clear_sweeps_orphaned_tmp(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("VA", "small", CoherenceMode.CCSM, tiny_config,
                  _result())
        (tmp_path / "aa").mkdir(exist_ok=True)
        orphan_shard = tmp_path / "aa" / "f00.1234.0.tmp"
        orphan_flat = tmp_path / "f00.1234.1.tmp"
        orphan_shard.write_text("{ torn")
        orphan_flat.write_text("{ torn")
        cache.clear()
        assert not orphan_shard.exists()
        assert not orphan_flat.exists()

    def test_compact_sweeps_only_stale_tmp(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        stale = tmp_path / "dead.1.0.tmp"
        fresh = tmp_path / "live.2.0.tmp"
        stale.write_text("{")
        fresh.write_text("{")
        old = 1_000_000_000  # well in the past
        os.utime(stale, (old, old))
        cache.compact()
        assert not stale.exists()
        assert fresh.exists()  # may belong to an in-progress writer
        assert cache.scan().stale_tmp == 0


class TestEviction:
    def _fill(self, cache, tiny_config, modes):
        paths = []
        for offset, mode in enumerate(modes):
            path = cache.put("VA", "small", mode, tiny_config,
                             _result(offset))
            # deterministic, strictly increasing mtimes
            os.utime(path, (1_000_000_000 + offset,
                            1_000_000_000 + offset))
            paths.append(path)
        return paths

    def test_oldest_mtime_evicted_first(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        modes = [CoherenceMode.CCSM, CoherenceMode.DIRECT_STORE,
                 CoherenceMode.HYBRID]
        paths = self._fill(cache, tiny_config, modes)
        keep_bytes = sum(p.stat().st_size for p in paths[1:])
        evicted = cache.compact(byte_budget=keep_bytes)
        assert evicted == 1
        assert not paths[0].exists()  # the oldest went
        assert paths[1].exists() and paths[2].exists()
        assert cache.evictions == 1

    def test_budget_respected(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        modes = [CoherenceMode.CCSM, CoherenceMode.DIRECT_STORE,
                 CoherenceMode.HYBRID]
        paths = self._fill(cache, tiny_config, modes)
        newest = paths[-1].stat().st_size
        assert cache.compact(byte_budget=newest) == 2
        assert cache.scan().total_bytes <= newest
        assert paths[2].exists()

    def test_get_refreshes_mtime_for_lru(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        modes = [CoherenceMode.CCSM, CoherenceMode.DIRECT_STORE]
        paths = self._fill(cache, tiny_config, modes)
        # touch the older entry through a get: it becomes most-recent
        assert cache.get("VA", "small", CoherenceMode.CCSM,
                         tiny_config) is not None
        keep_bytes = paths[0].stat().st_size
        cache.compact(byte_budget=keep_bytes)
        assert paths[0].exists()  # recently used, survived
        assert not paths[1].exists()

    def test_put_honours_env_budget(self, tiny_config, tmp_path,
                                    monkeypatch):
        probe = ResultCache(tmp_path / "probe")
        size = probe.put("VA", "small", CoherenceMode.CCSM, tiny_config,
                         _result()).stat().st_size
        monkeypatch.setenv("REPRO_CACHE_BYTES", str(int(size * 1.5)))
        cache = ResultCache(tmp_path / "real")
        assert cache.byte_budget == int(size * 1.5)
        path_a = cache.put("VA", "small", CoherenceMode.CCSM,
                           tiny_config, _result())
        os.utime(path_a, (1_000_000_000, 1_000_000_000))
        cache.put("VA", "small", CoherenceMode.DIRECT_STORE, tiny_config,
                  _result())
        # the second put auto-compacted: only the newer entry fits
        assert len(cache) == 1
        assert not path_a.exists()

    def test_bad_env_budget_rejected(self, monkeypatch, tmp_path):
        for value in ("lots", "-1"):
            monkeypatch.setenv("REPRO_CACHE_BYTES", value)
            with pytest.raises(ValueError, match="non-negative integer"):
                ResultCache(tmp_path)

    def test_negative_explicit_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-negative integer"):
            ResultCache(tmp_path, byte_budget=-1)
        with pytest.raises(ValueError, match="non-negative integer"):
            ResultCache(tmp_path).compact(byte_budget=-1)

    def test_zero_budget_is_valid(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_BYTES", "0")
        assert ResultCache(tmp_path).byte_budget == 0

    def test_no_budget_never_evicts(self, tiny_config, tmp_path,
                                    monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_BYTES", raising=False)
        cache = ResultCache(tmp_path)
        self._fill(cache, tiny_config,
                   [CoherenceMode.CCSM, CoherenceMode.DIRECT_STORE])
        assert cache.compact() == 0
        assert len(cache) == 2


class TestDefaultCache:
    def test_env_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        cache = default_cache()
        assert cache is not None
        assert cache.directory == tmp_path / "c"

    def test_no_cache_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert default_cache() is None

    def test_no_cache_zero_means_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "0")
        assert default_cache() is not None

    def test_explicit_dir_wins(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
        cache = default_cache(tmp_path)
        assert cache.directory == tmp_path
