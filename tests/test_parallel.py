"""Tests for the parallel fan-out runner."""

import dataclasses

import pytest

from repro.core.protocol_mode import CoherenceMode
from repro.harness.parallel import (
    ParallelRunner,
    RunPoint,
    WorkerError,
    compare_many,
    resolve_jobs,
)
from repro.harness.runner import run_benchmark


@pytest.fixture
def multi_core(monkeypatch):
    """Report a multi-core host so pool-path tests dodge the 1-core
    in-process clamp in :func:`resolve_jobs` regardless of where the
    suite runs."""
    monkeypatch.setattr("repro.harness.parallel.os.cpu_count", lambda: 4)


def _points(tiny_config, codes=("VA", "PT"), modes=None):
    config = dataclasses.replace(tiny_config, track_values=False)
    modes = modes or (CoherenceMode.CCSM, CoherenceMode.DIRECT_STORE)
    return [RunPoint(code, "small", mode, config)
            for code in codes for mode in modes]


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setattr("repro.harness.parallel.os.cpu_count",
                            lambda: 8)
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setattr("repro.harness.parallel.os.cpu_count",
                            lambda: 8)
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_cpu_count_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() >= 1

    def test_clamped_to_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1

    def test_single_core_host_runs_in_process(self, monkeypatch):
        """A pool on one hardware thread is pure overhead: clamp it."""
        monkeypatch.setattr("repro.harness.parallel.os.cpu_count",
                            lambda: 1)
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs() == 1
        assert resolve_jobs(4) == 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.raises(ValueError):
            resolve_jobs()


@pytest.mark.usefixtures("multi_core")
class TestParallelRunner:
    def test_deterministic_input_order(self, tiny_config):
        points = _points(tiny_config)
        results = ParallelRunner(jobs=2).run_points(points)
        assert len(results) == len(points)
        for point, result in zip(points, results):
            assert result.workload == f"{point.code}/small"
            assert result.mode == point.mode.value

    def test_parallel_matches_serial_tick_for_tick(self, tiny_config):
        points = _points(tiny_config)
        serial = ParallelRunner(jobs=1).run_points(points)
        parallel = ParallelRunner(jobs=2).run_points(points)
        assert ([r.total_ticks for r in serial]
                == [r.total_ticks for r in parallel])
        assert ([r.events_fired for r in serial]
                == [r.events_fired for r in parallel])
        assert ([r.gpu_l2.misses for r in serial]
                == [r.gpu_l2.misses for r in parallel])

    def test_jobs_one_runs_in_process(self, tiny_config, monkeypatch):
        # poison the pool: jobs=1 must never construct one
        import concurrent.futures as futures

        def _boom(*_args, **_kwargs):
            raise AssertionError("jobs=1 created a process pool")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", _boom)
        results = ParallelRunner(jobs=1).run_points(
            _points(tiny_config, codes=("VA",)))
        assert len(results) == 2

    def test_pool_unavailable_degrades_to_serial(self, tiny_config,
                                                 monkeypatch):
        import concurrent.futures as futures

        def _unavailable(*_args, **_kwargs):
            raise OSError("no forking here")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", _unavailable)
        points = _points(tiny_config, codes=("VA",))
        results = ParallelRunner(jobs=4).run_points(points)
        assert [r.total_ticks for r in results] == [
            r.total_ticks
            for r in ParallelRunner(jobs=1).run_points(points)]

    def test_worker_crash_surfaces_point(self, tiny_config):
        config = dataclasses.replace(tiny_config, track_values=False)
        points = [RunPoint("NOPE", "small", CoherenceMode.CCSM, config)]
        with pytest.raises(WorkerError) as excinfo:
            ParallelRunner(jobs=1).run_points(points)
        assert excinfo.value.point.code == "NOPE"

    def test_progress_fires_per_point(self, tiny_config):
        points = _points(tiny_config, codes=("VA",))
        seen = []
        ParallelRunner(jobs=1).run_points(points, progress=seen.append)
        assert len(seen) == 2


@pytest.mark.usefixtures("multi_core")
class TestPoolDegradedPaths:
    """The process pool failing must never lose or duplicate points."""

    @pytest.fixture
    def counted_execute(self, monkeypatch):
        """Count executions per point through the real execute path."""
        from repro.harness import parallel as parallel_module
        counts = {}
        real = parallel_module.execute_point

        def counting(point):
            key = (point.code, point.mode.value)
            counts[key] = counts.get(key, 0) + 1
            return real(point)

        monkeypatch.setattr(parallel_module, "execute_point", counting)
        return counts

    def test_pool_creation_failure_runs_each_point_once(
            self, tiny_config, monkeypatch, counted_execute):
        import concurrent.futures as futures

        def _unavailable(*_args, **_kwargs):
            raise PermissionError("no forking here")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", _unavailable)
        points = _points(tiny_config)
        results = ParallelRunner(jobs=4).run_points(points)
        assert all(result is not None for result in results)
        assert sorted(counted_execute.values()) == [1] * len(points)

    def test_submit_breakage_redispatches_unfinished(
            self, tiny_config, monkeypatch, counted_execute):
        import concurrent.futures as futures
        from concurrent.futures import Future

        class BreaksOnSecondSubmit:
            """First submit works (inline), then the pool 'dies'."""

            def __init__(self, *args, **kwargs):
                self.submitted = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, point):
                self.submitted += 1
                if self.submitted > 1:
                    raise OSError("fork refused at submit time")
                future = Future()
                future.set_result(fn(point))
                return future

        monkeypatch.setattr(futures, "ProcessPoolExecutor",
                            BreaksOnSecondSubmit)
        points = _points(tiny_config)
        results = ParallelRunner(jobs=4).run_points(points)
        assert all(result is not None for result in results)
        # every point ran exactly once: nothing lost, nothing re-run
        assert sorted(counted_execute.values()) == [1] * len(points)
        serial = ParallelRunner(jobs=1).run_points(points)
        assert ([r.total_ticks for r in results]
                == [r.total_ticks for r in serial])

    def test_broken_pool_at_result_redispatches_only_unfinished(
            self, tiny_config, monkeypatch, counted_execute):
        import concurrent.futures as futures
        from concurrent.futures import BrokenExecutor, Future

        class DiesAfterFirstResult:
            """Every submit accepted; only the first future succeeds."""

            def __init__(self, *args, **kwargs):
                self.submitted = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, point):
                self.submitted += 1
                future = Future()
                if self.submitted == 1:
                    future.set_result(fn(point))
                else:
                    future.set_exception(
                        BrokenExecutor("a worker was killed"))
                return future

        monkeypatch.setattr(futures, "ProcessPoolExecutor",
                            DiesAfterFirstResult)
        points = _points(tiny_config)
        results = ParallelRunner(jobs=4).run_points(points)
        assert all(result is not None for result in results)
        # the point that finished in the pool was not re-dispatched
        assert sorted(counted_execute.values()) == [1] * len(points)

    def test_worker_exception_still_surfaces_as_worker_error(
            self, tiny_config, monkeypatch):
        import concurrent.futures as futures
        from concurrent.futures import Future

        class FailsEveryFuture:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, _fn, _point):
                future = Future()
                future.set_exception(ValueError("the point is bad"))
                return future

        monkeypatch.setattr(futures, "ProcessPoolExecutor",
                            FailsEveryFuture)
        points = _points(tiny_config)
        with pytest.raises(WorkerError) as excinfo:
            ParallelRunner(jobs=4).run_points(points)
        # a genuine per-point failure is not mistaken for pool breakage
        assert excinfo.value.point.code == points[0].code


class TestCompareMany:
    def test_matches_compare_modes(self, tiny_config):
        config = dataclasses.replace(tiny_config, track_values=False)
        [batch] = compare_many(["VA"], "small", config=config, jobs=1)
        ccsm = run_benchmark("VA", "small", CoherenceMode.CCSM, config)
        ds = run_benchmark("VA", "small", CoherenceMode.DIRECT_STORE,
                           config)
        assert batch.code == "VA"
        assert batch.ccsm.total_ticks == ccsm.total_ticks
        assert batch.ccsm.stats == ccsm.stats
        assert batch.direct_store.total_ticks == ds.total_ticks
        assert batch.direct_store.stats == ds.stats

    def test_order_and_codes(self, tiny_config):
        config = dataclasses.replace(tiny_config, track_values=False)
        comparisons = compare_many(["pt", "VA"], "small", config=config,
                                   jobs=1)
        assert [c.code for c in comparisons] == ["PT", "VA"]

    def test_progress_once_per_code(self, tiny_config):
        config = dataclasses.replace(tiny_config, track_values=False)
        seen = []
        compare_many(["VA", "PT"], "small", config=config, jobs=1,
                     progress=seen.append)
        assert sorted(seen) == ["PT", "VA"]


class TestCacheIntegration:
    def test_cache_round_trip_through_runner(self, tiny_config, tmp_path):
        from repro.harness.resultcache import ResultCache
        config = dataclasses.replace(tiny_config, track_values=False)
        points = [RunPoint("VA", "small", CoherenceMode.CCSM, config)]
        cache = ResultCache(tmp_path)
        first = ParallelRunner(jobs=1, cache=cache).run_points(points)
        assert cache.misses == 1 and cache.hits == 0

        warm_cache = ResultCache(tmp_path)
        second = ParallelRunner(jobs=1, cache=warm_cache).run_points(points)
        assert warm_cache.hits == 1 and warm_cache.misses == 0
        assert first[0].total_ticks == second[0].total_ticks
        assert first[0].stats == second[0].stats

    def test_failed_cache_write_keeps_the_result(self, tiny_config,
                                                 tmp_path, full_disk):
        self._check_failed_cache_write(tiny_config, tmp_path)

    def test_failed_cache_write_on_read_only_disk(self, tiny_config,
                                                  tmp_path, read_only_disk):
        self._check_failed_cache_write(tiny_config, tmp_path)

    @staticmethod
    def _check_failed_cache_write(tiny_config, tmp_path):
        from repro.harness.resultcache import ResultCache
        config = dataclasses.replace(tiny_config, track_values=False)
        point = RunPoint("VA", "small", CoherenceMode.CCSM, config)
        [result] = ParallelRunner(
            jobs=1, cache=ResultCache(tmp_path)).run_points([point])
        fresh = run_benchmark("VA", "small", CoherenceMode.CCSM, config)
        assert result.to_dict() == fresh.to_dict()
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_cached_result_matches_fresh_run(self, tiny_config, tmp_path):
        from repro.harness.resultcache import ResultCache
        config = dataclasses.replace(tiny_config, track_values=False)
        point = RunPoint("VA", "small", CoherenceMode.DIRECT_STORE, config)
        cache = ResultCache(tmp_path)
        ParallelRunner(jobs=1, cache=cache).run_points([point])
        [cached] = ParallelRunner(jobs=1,
                                  cache=ResultCache(tmp_path)
                                  ).run_points([point])
        fresh = run_benchmark("VA", "small", CoherenceMode.DIRECT_STORE,
                              config)
        assert cached.total_ticks == fresh.total_ticks
        assert cached.to_dict() == fresh.to_dict()
