"""Tests for the sampling host-time profiler."""

import signal
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.protocol_mode import CoherenceMode
from repro.harness.runner import run_benchmark
from repro.utils.profiler import MODULE_LAYER, OTHER, SamplingProfiler


def fake_frame(*stack):
    """A frame chain from ``(module, function)`` pairs, innermost first."""
    frame = None
    for module, function in reversed(stack):
        frame = SimpleNamespace(f_globals={"__name__": module},
                                f_code=SimpleNamespace(co_name=function),
                                f_back=frame)
    return frame


def sample(profiler, *stack):
    profiler._on_sample(signal.SIGPROF, fake_frame(*stack))


def spin(seconds):
    """Burn *seconds* of process CPU time."""
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


@pytest.fixture
def sentinel_timer():
    """A foreign SIGPROF handler and a far-off ITIMER_PROF to restore."""
    def foreign(_signum, _frame):
        pass

    previous = signal.signal(signal.SIGPROF, foreign)
    signal.setitimer(signal.ITIMER_PROF, 1000.0, 500.0)
    yield foreign
    signal.setitimer(signal.ITIMER_PROF, 0)
    signal.signal(signal.SIGPROF, previous)


def assert_restored(foreign):
    assert signal.getsignal(signal.SIGPROF) is foreign
    delay, interval = signal.getitimer(signal.ITIMER_PROF)
    # the kernel rounds timer values up to its tick
    assert 990.0 < delay < 1000.1
    assert interval == pytest.approx(500.0, abs=0.1)


class TestLifecycle:
    def test_restores_handler_and_timer_after_exit(self, sentinel_timer):
        with SamplingProfiler() as profiler:
            assert signal.getsignal(signal.SIGPROF) == profiler._on_sample
            spin(0.05)
        assert_restored(sentinel_timer)
        assert profiler.total_samples > 0

    def test_restores_handler_and_timer_after_exception(self,
                                                        sentinel_timer):
        with pytest.raises(KeyError):
            with SamplingProfiler():
                raise KeyError("boom")
        assert_restored(sentinel_timer)

    def test_default_handler_restored_with_timer_off(self):
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        with SamplingProfiler():
            spin(0.01)
        assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)

    def test_nothing_sampled_after_exit(self):
        with SamplingProfiler() as profiler:
            spin(0.05)
        taken = dict(profiler.samples)
        spin(0.05)
        assert profiler.samples == taken

    def test_reentering_accumulates(self):
        profiler = SamplingProfiler()
        with profiler:
            spin(0.05)
        first = profiler.total_samples
        first_cpu = profiler.cpu_seconds
        with profiler:
            spin(0.05)
        assert profiler.total_samples > first
        assert profiler.cpu_seconds > first_cpu

    def test_nested_entry_raises(self):
        with SamplingProfiler() as profiler:
            with pytest.raises(RuntimeError, match="already running"):
                profiler.__enter__()

    def test_non_main_thread_raises(self):
        errors = []

        def enter():
            try:
                with SamplingProfiler():
                    pass
            except RuntimeError as error:
                errors.append(str(error))

        worker = threading.Thread(target=enter)
        worker.start()
        worker.join()
        assert errors and "main thread" in errors[0]

    def test_missing_setitimer_raises(self, monkeypatch):
        monkeypatch.delattr(signal, "setitimer")
        with pytest.raises(RuntimeError, match="setitimer"):
            with SamplingProfiler():
                pass


class TestAttribution:
    def test_module_maps_to_layer(self):
        profiler = SamplingProfiler()
        sample(profiler, ("repro.mem.dram", "access"))
        assert profiler.samples == {"dram": 1}

    def test_innermost_mapped_frame_wins(self):
        profiler = SamplingProfiler()
        sample(profiler, ("repro.mem.cache", "lookup"),
               ("repro.gpu.sm", "_load_op"),
               ("repro.engine.simulator", "_run"))
        assert profiler.samples == {"cache": 1}

    def test_unmapped_frames_fall_through_to_caller(self):
        profiler = SamplingProfiler()
        sample(profiler, ("enum", "__get__"),
               ("repro.coherence.hammer", "load"))
        assert profiler.samples == {"protocol": 1}
        assert profiler.unmapped == {}

    def test_unmapped_repro_module_is_reported(self):
        profiler = SamplingProfiler()
        sample(profiler, ("repro.not_a_layer", "helper"),
               ("repro.vm.mmu", "translate"))
        assert profiler.samples == {"tlb": 1}
        assert profiler.unmapped == {"repro.not_a_layer": 1}

    def test_no_repro_frame_counts_as_other(self):
        profiler = SamplingProfiler()
        sample(profiler, ("json.encoder", "encode"), ("__main__", "main"))
        assert profiler.samples == {OTHER: 1}

    def test_function_overrides_in_fused_modules(self):
        profiler = SamplingProfiler()
        sample(profiler, ("repro.coherence.batch_kernel", "_load_hit"))
        sample(profiler, ("repro.coherence.batch_kernel", "_store_hit"))
        sample(profiler, ("repro.coherence.batch_kernel", "_fetch_fused"))
        sample(profiler, ("repro.coherence.batch_kernel", "_upgrade_fused"))
        sample(profiler, ("repro.gpu.sm", "_translate_line"))
        sample(profiler, ("repro.gpu.sm", "_issue"))
        sample(profiler, ("repro.gpu.sm", "_issue"))
        assert profiler.samples == {"cache": 2, "protocol": 2, "tlb": 1,
                                    "warp": 2}


class TestReport:
    def test_report_lists_layers_sorted_by_samples(self):
        profiler = SamplingProfiler()
        profiler.samples = {"cache": 1, "engine": 3}
        profiler.cpu_seconds = 2.0
        lines = profiler.report().splitlines()
        assert lines[0].split() == ["layer", "samples", "est", "s", "%"]
        assert lines[2].split() == ["engine", "3", "1.500", "75.0%"]
        assert lines[3].split() == ["cache", "1", "0.500", "25.0%"]
        assert lines[-1].split() == ["total", "4", "2.000"]

    def test_empty_report_has_zero_total(self):
        report = SamplingProfiler().report()
        assert report.splitlines()[-1].split() == ["total", "0", "0.000"]


@pytest.fixture(scope="module")
def km_profiles():
    """One sampled KM small run per pull/push mode."""
    profiles = {}
    for mode in (CoherenceMode.CCSM, CoherenceMode.DIRECT_STORE):
        with SamplingProfiler() as profiler:
            run_benchmark("KM", "small", mode)
        profiles[mode.value] = profiler
    return profiles


class TestOnARealRun:
    def test_other_takes_under_one_percent(self, km_profiles):
        for profiler in km_profiles.values():
            assert profiler.total_samples > 50
            other = profiler.samples.get(OTHER, 0)
            assert other < 0.01 * profiler.total_samples, profiler.samples

    def test_every_sampled_repro_module_is_mapped(self, km_profiles):
        for profiler in km_profiles.values():
            assert profiler.unmapped == {}
            assert set(profiler.samples) <= set(MODULE_LAYER.values())
