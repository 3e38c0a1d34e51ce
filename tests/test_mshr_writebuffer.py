"""Unit tests for MSHR files and the CPU core's store buffer.

The store buffer is part of the core; its drain, forwarding and
ordering tests live in ``tests/test_cpu.py``.
"""

import dataclasses

import pytest

from repro.core.protocol_mode import CoherenceMode
from repro.core.system import IntegratedSystem
from repro.mem.mshr import MSHRFile
from repro.workloads.trace import CpuOp


class TestMSHRFile:
    def test_allocate_and_lookup(self):
        mshrs = MSHRFile("m", 4)
        entry = mshrs.allocate(0x1000, 5)
        assert entry is not None
        assert mshrs.lookup(0x1000) is entry
        assert 0x1000 in mshrs

    def test_duplicate_allocation_rejected(self):
        mshrs = MSHRFile("m", 4)
        mshrs.allocate(0x1000, 0)
        with pytest.raises(ValueError):
            mshrs.allocate(0x1000, 1)

    def test_full_returns_none(self):
        mshrs = MSHRFile("m", 2)
        mshrs.allocate(0x0, 0)
        mshrs.allocate(0x80, 0)
        assert mshrs.allocate(0x100, 0) is None
        assert mshrs.stats.counter("full_stalls").value == 1

    def test_merge(self):
        mshrs = MSHRFile("m", 2)
        mshrs.allocate(0x1000, 0)
        woken = []
        assert mshrs.merge(0x1000, lambda: woken.append(1))
        waiters = mshrs.complete(0x1000)
        for waiter in waiters:
            waiter()
        assert woken == [1]

    def test_merge_missing_line_fails(self):
        assert not MSHRFile("m", 2).merge(0x1000, lambda: None)

    def test_complete_frees_entry(self):
        mshrs = MSHRFile("m", 1)
        mshrs.allocate(0x1000, 0)
        mshrs.complete(0x1000)
        assert not mshrs.is_full
        assert mshrs.lookup(0x1000) is None

    def test_complete_unknown_raises(self):
        with pytest.raises(KeyError):
            MSHRFile("m", 1).complete(0x1000)

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            MSHRFile("m", 0)


class TestWriteBuffer:
    def test_full_rejects(self, tiny_config):
        """A store into a full buffer is refused: the core stalls on it
        and counts the stall, and the buffer keeps what it held."""
        config = dataclasses.replace(
            tiny_config,
            cpu=dataclasses.replace(tiny_config.cpu, store_buffer_entries=1))
        system = IntegratedSystem(config, CoherenceMode.CCSM)
        core = system.cpu_core
        core.store_buffer.append((0x10, 1))
        core.run_phase([CpuOp.store(0x20, 2)], lambda tick: None)
        system.simulator.run()
        assert list(core.store_buffer) == [(0x10, 1)]
        assert core.stats.counter("ops_executed").value == 0
        assert core.stats.counter("store_buffer_stall_events").value == 1
