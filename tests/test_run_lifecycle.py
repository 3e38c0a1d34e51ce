"""The run lifecycle: GC suspension per point and release of a finished
system, so a dead simulator is freed by refcounting, not the cyclic
collector."""

import dataclasses
import gc
import sys
import threading

import pytest

from repro.core.config import SystemConfig
from repro.core.protocol_mode import CoherenceMode
from repro.core.system import IntegratedSystem
from repro.engine.simulator import SimulationLimitError, gc_suspended
from repro.harness.runner import run_benchmark
from repro.workloads.suite import get_workload

#: cyclic objects one released point may leave (the system skeleton,
#: about 1.5k; 18k-74k before release existed)
MAX_CYCLIC_GARBAGE = 5_000


@pytest.fixture
def gc_enabled():
    """Run the test with the collector on and leave it on afterwards."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestReleasedRuns:
    @pytest.mark.parametrize("code", ["LV", "HT", "PT", "VA"])
    def test_finished_point_leaves_little_cyclic_garbage(self, code,
                                                         gc_enabled):
        gc.collect()
        run_benchmark(code, "small", CoherenceMode.CCSM)
        assert gc.collect() < MAX_CYCLIC_GARBAGE

    def test_gc_restored_after_a_failing_point(self, gc_enabled):
        config = dataclasses.replace(SystemConfig(track_values=False),
                                     max_events=50)
        with pytest.raises(SimulationLimitError):
            run_benchmark("LV", "small", CoherenceMode.CCSM, config)
        assert gc.isenabled()

    def test_disabled_gc_stays_disabled(self, gc_enabled):
        gc.disable()
        run_benchmark("LV", "small", CoherenceMode.CCSM)
        assert not gc.isenabled()

    @pytest.mark.parametrize("ran_first", [True, False])
    def test_closed_system_refuses_to_run(self, ran_first):
        system = IntegratedSystem(SystemConfig(track_values=False))
        if ran_first:
            system.run(get_workload("LV", "small"))
        system.close()
        with pytest.raises(RuntimeError, match="single-use"):
            system.run(get_workload("LV", "small"))

    def test_run_keeps_state_until_close(self, tiny_config):
        system = IntegratedSystem(tiny_config, CoherenceMode.DIRECT_STORE)
        result = system.run(get_workload("VA", "small"))
        assert system.gpu_l2_slices[0].resident_lines()
        system.check_invariants()
        system.close()
        assert not system.gpu_l2_slices[0].resident_lines()
        assert not any(sm._warps for sm in system.sms)
        again = run_benchmark("VA", "small", CoherenceMode.DIRECT_STORE,
                              tiny_config)
        assert again.total_ticks == result.total_ticks
        assert again.stats == result.stats


class TestGcSuspended:
    def test_nested_suspensions_restore_on_the_outermost_exit(
            self, gc_enabled):
        with gc_suspended():
            assert not gc.isenabled()
            with gc_suspended():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_on_exception(self, gc_enabled):
        with pytest.raises(ValueError):
            with gc_suspended():
                raise ValueError("boom")
        assert gc.isenabled()

    def test_keeps_a_disabled_collector_disabled(self, gc_enabled):
        gc.disable()
        with gc_suspended():
            pass
        assert not gc.isenabled()

    def test_overlapping_threads_restore_once_all_leave(self, gc_enabled):
        rounds = 2_000
        errors = []

        def worker():
            try:
                for _ in range(rounds):
                    with gc_suspended():
                        if gc.isenabled():
                            errors.append("collector on inside a block")
            except Exception as exc:  # surfaced by the assert below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert gc.isenabled()
