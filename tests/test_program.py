"""Tests for translator-driven workloads (the §III end-to-end loop)."""

import pytest

from repro.core.program import TranslatedWorkload
from repro.core.protocol_mode import CoherenceMode
from repro.core.system import IntegratedSystem
from repro.core.translator import SourceTranslator, TranslationReport
from repro.workloads.patterns import cpu_produce, stream_warps
from repro.workloads.trace import CpuPhase, KernelLaunch

SOURCE = """
#define N 1024
float *a;
float *b;
a = (float *)malloc(N * sizeof(float));
b = (float *)malloc(N * sizeof(float));
k<<<g, t>>>(a, b);
"""


def phases(ctx, buffers):
    produce = CpuPhase("p", cpu_produce(buffers["a"], 4096))
    body = stream_warps(buffers["a"], 4096, 4, ctx.lanes_per_warp,
                        ctx.line_size)
    return [produce, KernelLaunch("k", body)]


@pytest.fixture
def report():
    return SourceTranslator().translate_source(SOURCE)


class TestTranslatedWorkload:
    def test_ds_buffers_at_translator_addresses(self, tiny_config, report):
        system = IntegratedSystem(tiny_config, CoherenceMode.DIRECT_STORE)
        workload = TranslatedWorkload(report, phases)
        system.run(workload)
        for alloc in report.allocations:
            address = alloc.window_address
            assert workload.buffers[alloc.name] == address
            assert system.dsu.is_ds_physical_line(
                system.page_table.translate(address))

    def test_ccsm_buffers_on_heap(self, tiny_config, report):
        system = IntegratedSystem(tiny_config, CoherenceMode.CCSM)
        workload = TranslatedWorkload(report, phases)
        system.run(workload)
        for base in workload.buffers.values():
            assert not system.allocator.in_direct_store_window(base)
            assert not system.dsu.is_ds_physical_line(
                system.page_table.translate_or_map(base))

    def test_ds_run_forwards_stores(self, tiny_config, report):
        system = IntegratedSystem(tiny_config, CoherenceMode.DIRECT_STORE)
        result = system.run(TranslatedWorkload(report, phases))
        assert result.ds_forwarded_stores > 0
        system.check_invariants()

    def test_unresolved_arguments_rejected(self):
        bad = SourceTranslator().translate_source("k<<<g, t>>>(ghost);")
        with pytest.raises(ValueError, match="unresolved"):
            TranslatedWorkload(bad, phases)

    def test_empty_translation_rejected(self):
        with pytest.raises(ValueError):
            TranslatedWorkload(TranslationReport(), phases)

    def test_empty_phases_rejected(self, tiny_config, report):
        system = IntegratedSystem(tiny_config, CoherenceMode.CCSM)
        workload = TranslatedWorkload(report, lambda ctx, buffers: [])
        with pytest.raises(ValueError):
            system.run(workload)


class TestAllocateAt:
    def test_address_outside_window_rejected(self, tiny_config):
        system = IntegratedSystem(tiny_config, CoherenceMode.DIRECT_STORE)
        with pytest.raises(ValueError, match="outside"):
            system.dsu.allocate_at("x", 0x1000_0000, 4096)

    def test_pages_mapped_and_registered(self, tiny_config):
        from repro.vm.mmap import DIRECT_STORE_WINDOW_BASE
        system = IntegratedSystem(tiny_config, CoherenceMode.DIRECT_STORE)
        region = system.dsu.allocate_at(
            "x", DIRECT_STORE_WINDOW_BASE + 0x10000, 8192)
        physical = system.page_table.translate(region.start)
        assert system.dsu.is_ds_physical_line(physical)
