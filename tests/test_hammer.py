"""Tests of the Hammer coherence engine (runtime behaviour + values)."""

import pytest

from repro.coherence.hammer import CoherentAgent, HammerSystem
from repro.coherence.protocol_table import ProtocolViolationError
from repro.coherence.states import HammerState
from repro.engine.clock import ClockDomain
from repro.interconnect.direct_network import DirectStoreNetwork
from repro.interconnect.network import Crossbar
from repro.mem.cache import SetAssociativeCache
from repro.mem.dram import DramConfig, DramModel
from repro.mem.memimage import MemoryImage


def build_system(track_values=True, broadcast=True, slices=1):
    clock = ClockDomain("mem", 1e9)
    slice_names = [f"gpu.l2.slice{i}" for i in range(slices)]
    network = Crossbar("net", clock, ["cpu", *slice_names, "memctrl"])
    dram = DramModel(DramConfig(size_bytes=64 * 1024 * 1024))
    image = MemoryImage() if track_values else None
    system = HammerSystem(network, dram, image, clock,
                          broadcast_enabled=broadcast)
    cpu = CoherentAgent("cpu", SetAssociativeCache("cpu.l2", 64 * 1024, 8),
                        clock, 10)
    system.add_agent(cpu)
    for index, name in enumerate(slice_names):
        agent = CoherentAgent(
            name,
            SetAssociativeCache(name, 64 * 1024, 16, interleave=slices,
                                interleave_offset=index),
            clock, 10,
            may_cache=(lambda line, i=index:
                       (line // 128) % slices == i))
        system.add_agent(agent)
    ds_net = DirectStoreNetwork("dsnet", clock, "cpu", slice_names)
    system.attach_direct_network(ds_net)
    return system


GPU = "gpu.l2.slice0"


class TestLoadsAndStores:
    def test_cold_load_fills_exclusive_clean(self):
        system = build_system()
        result = system.load("cpu", 0x1000, 0)
        assert not result.hit
        assert result.source == "memory"
        line = system.agents["cpu"].cache.probe(0x1000)
        assert line.state is HammerState.M

    def test_store_fills_mm(self):
        system = build_system()
        system.store("cpu", 0x1000, 5, 0)
        line = system.agents["cpu"].cache.probe(0x1000)
        assert line.state is HammerState.MM
        assert line.dirty

    def test_load_hit_is_local(self):
        system = build_system()
        first = system.load("cpu", 0x1000, 0)
        second = system.load("cpu", 0x1000, first.ready_tick)
        assert second.hit
        # a hit pays only the tag latency; a miss pays the full walk
        hit_latency = second.ready_tick - first.ready_tick
        assert hit_latency < first.ready_tick

    def test_store_after_exclusive_load_silently_upgrades(self):
        system = build_system()
        system.load("cpu", 0x1000, 0)
        before = system.network.total_messages
        system.store("cpu", 0x1000, 3, 10 ** 6)
        # M -> MM is silent: no new coherence traffic
        assert system.network.total_messages == before
        assert system.agents["cpu"].cache.probe(
            0x1000).state is HammerState.MM

    def test_value_flows_cpu_to_gpu(self):
        system = build_system()
        done = system.store("cpu", 0x2000, 42, 0)
        result = system.load(GPU, 0x2000, done.ready_tick)
        assert result.value == 42
        assert result.source == "owner"

    def test_value_flows_gpu_to_cpu(self):
        system = build_system()
        done = system.store(GPU, 0x3000, 9, 0)
        result = system.load("cpu", 0x3000, done.ready_tick)
        assert result.value == 9

    def test_owner_demoted_to_o_on_remote_read(self):
        system = build_system()
        done = system.store("cpu", 0x2000, 1, 0)
        system.load(GPU, 0x2000, done.ready_tick)
        assert system.agents["cpu"].cache.probe(
            0x2000).state is HammerState.O
        assert system.agents[GPU].cache.probe(
            0x2000).state is HammerState.S

    def test_remote_write_invalidates_sharers(self):
        system = build_system()
        t = system.store("cpu", 0x2000, 1, 0).ready_tick
        t = system.load(GPU, 0x2000, t).ready_tick
        system.store(GPU, 0x2000, 2, t)
        assert system.agents["cpu"].cache.probe(0x2000) is None
        assert system.agents[GPU].cache.probe(
            0x2000).state is HammerState.MM

    def test_upgrade_from_shared(self):
        system = build_system()
        t = system.store("cpu", 0x2000, 1, 0).ready_tick
        t = system.load(GPU, 0x2000, t).ready_tick  # cpu O, gpu S
        result = system.store(GPU, 0x2000, 7, t)
        assert result.hit  # data was already local
        assert system.agents["cpu"].cache.probe(0x2000) is None
        t2 = system.load("cpu", 0x2000, result.ready_tick)
        assert t2.value == 7

    def test_dirty_ownership_transfers_on_getx(self):
        system = build_system()
        t = system.store("cpu", 0x2000, 1, 0).ready_tick
        result = system.store(GPU, 0x2000, 2, t)
        line = system.agents[GPU].cache.probe(0x2000)
        assert line.state is HammerState.MM
        assert line.dirty
        # memory was NOT updated: the dirty data moved cache to cache
        assert system.image.read_word(0x2000) == 0
        system.check_invariants()


class TestEvictionsAndWritebacks:
    def test_dirty_eviction_reaches_memory(self):
        system = build_system()
        cache = system.agents["cpu"].cache
        # fill one set (8 ways at 64KiB/8w/128B = 64 sets)
        stride = 64 * 128
        tick = 0
        for way in range(8):
            tick = system.store("cpu", way * stride, way, tick).ready_tick
        before = system.stats.counter("writebacks").value
        tick = system.store("cpu", 8 * stride, 99, tick).ready_tick
        assert system.stats.counter("writebacks").value == before + 1
        # the evicted value survives in memory and can be re-read
        result = system.load(GPU, 0, tick)
        assert result.value == 0

    def test_explicit_evict(self):
        system = build_system()
        t = system.store("cpu", 0x2000, 5, 0).ready_tick
        system.evict("cpu", 0x2000, t)
        assert system.agents["cpu"].cache.probe(0x2000) is None
        assert system.image.read_word(0x2000) == 5


class TestDirectStoreExtension:
    def test_remote_store_installs_mm_at_slice(self):
        system = build_system()
        result = system.remote_store("cpu", GPU, 0x4000, 77, 0)
        line = system.agents[GPU].cache.probe(0x4000)
        assert line.state is HammerState.MM
        assert line.dirty
        assert result.value == 77

    def test_remote_store_leaves_cpu_invalid(self):
        system = build_system()
        system.remote_store("cpu", GPU, 0x4000, 77, 0)
        assert system.agents["cpu"].cache.probe(0x4000) is None

    def test_consumer_load_hits_after_push(self):
        system = build_system()
        done = system.remote_store("cpu", GPU, 0x4000, 77, 0)
        result = system.load(GPU, 0x4000, done.ready_tick)
        assert result.hit
        assert result.value == 77

    def test_repeated_pushes_merge(self):
        system = build_system()
        t = system.remote_store("cpu", GPU, 0x4000, 1, 0).ready_tick
        done = system.remote_store("cpu", GPU, 0x4004, 2, t)
        assert done.hit  # merged into the resident MM line
        line = system.agents[GPU].cache.probe(0x4000)
        assert line.data[0] == 1 and line.data[1] == 2

    def test_remote_store_flushes_local_dirty_copy(self):
        system = build_system()
        t = system.store("cpu", 0x4000, 5, 0).ready_tick  # CPU MM
        system.remote_store("cpu", GPU, 0x4004, 6, t)
        assert system.agents["cpu"].cache.probe(0x4000) is None
        # the flushed word reached memory, so the install read it back
        line = system.agents[GPU].cache.probe(0x4000)
        assert line.data[0] == 5
        assert line.data[1] == 6
        system.check_invariants()

    def test_write_combined_burst(self):
        system = build_system()
        words = [(0x4004, 11), (0x4008, 12)]
        system.remote_store("cpu", GPU, 0x4000, 10, 0, extra_words=words)
        line = system.agents[GPU].cache.probe(0x4000)
        assert (line.data[0], line.data[1], line.data[2]) == (10, 11, 12)

    def test_bypass_to_dram_when_set_full(self):
        system = build_system()
        cache = system.agents[GPU].cache
        # 64KiB, 16 ways, 128B lines -> 32 sets; fill set 0 completely
        stride = 32 * 128
        tick = 0
        for way in range(16):
            tick = system.remote_store("cpu", GPU, way * stride, way,
                                       tick).ready_tick
        before = system.stats.counter("ds_dram_bypass").value
        result = system.remote_store("cpu", GPU, 16 * stride, 99, tick)
        assert system.stats.counter("ds_dram_bypass").value == before + 1
        assert result.source == "memory"
        # nothing was evicted; the data is still correct from memory
        assert system.agents[GPU].cache.probe(16 * stride) is None
        read = system.load(GPU, 16 * stride, result.ready_tick)
        assert read.value == 99

    def test_remote_store_fills_a_set_with_a_free_way(self):
        system = build_system()
        # an empty set, then a full set 0 and a different, free set 1
        system.remote_store("cpu", GPU, 0, 1, 0)
        assert system.agents[GPU].cache.probe(0) is not None
        stride = 32 * 128
        tick = 0
        for way in range(1, 16):
            tick = system.remote_store("cpu", GPU, way * stride, way,
                                       tick).ready_tick
        result = system.remote_store("cpu", GPU, 128, 7, tick)
        assert system.stats.counter("ds_dram_bypass").value == 0
        assert result.source == "local"
        assert system.agents[GPU].cache.probe(128).state is HammerState.MM

    def test_uncached_cpu_load_reads_home_slice(self):
        system = build_system()
        t = system.remote_store("cpu", GPU, 0x4000, 31, 0).ready_tick
        result = system.uncached_load("cpu", 0x4000, t)
        assert result.value == 31
        assert result.source == "owner"
        assert system.agents["cpu"].cache.probe(0x4000) is None

    def test_uncached_load_falls_back_to_memory(self):
        system = build_system()
        system.image.write_word(0x5000, 123)
        result = system.uncached_load("cpu", 0x5000, 0)
        assert result.value == 123
        assert result.source == "memory"

    def test_forward_traffic_counted(self):
        system = build_system()
        system.remote_store("cpu", GPU, 0x4000, 1, 0)
        assert system.ds_network.forwarded_stores == 1
        assert system.stats.counter("remote_stores").value == 1

    def test_remote_store_requires_network(self):
        system = build_system()
        system.ds_network = None
        with pytest.raises(RuntimeError):
            system.remote_store("cpu", GPU, 0x4000, 1, 0)


class TestSlicedTopology:
    def test_lines_route_to_owning_slice(self):
        system = build_system(slices=2)
        s0 = system.agents["gpu.l2.slice0"]
        s1 = system.agents["gpu.l2.slice1"]
        system.load("gpu.l2.slice0", 0, 0)       # line 0 -> slice 0
        system.load("gpu.l2.slice1", 128, 0)     # line 1 -> slice 1
        assert s0.cache.probe(0) is not None
        assert s1.cache.probe(128) is not None

    def test_wrong_slice_rejected(self):
        system = build_system(slices=2)
        with pytest.raises(ProtocolViolationError):
            system.load("gpu.l2.slice0", 128, 0)  # line 1 is slice 1's

    def test_probe_filter_skips_other_slices(self):
        system = build_system(slices=2)
        before = system.stats.counter("probes_sent").value
        system.load("cpu", 0, 0)
        # only slice0 (owning the line) is probed, not slice1
        assert system.stats.counter("probes_sent").value == before + 1


    def test_agent_registered_after_first_access_is_rejected(self):
        system = build_system()
        system.load("cpu", 0, 0)
        # the resolved walks fixed their probe targets at first use
        late = CoherentAgent(
            "late", SetAssociativeCache("late", 64 * 1024, 8),
            system.mem_clock, 10)
        with pytest.raises(RuntimeError, match="after the first"):
            system.add_agent(late)


class TestStandaloneMode:
    def test_no_probes_without_broadcast(self):
        system = build_system(broadcast=False)
        system.store("cpu", 0x1000, 1, 0)
        system.load(GPU, 0x2000, 0)
        assert system.stats.counter("probes_sent").value == 0

    def test_ds_path_still_coherent_for_window_data(self):
        system = build_system(broadcast=False)
        t = system.remote_store("cpu", GPU, 0x4000, 55, 0).ready_tick
        assert system.load(GPU, 0x4000, t).value == 55
        assert system.uncached_load("cpu", 0x4000, t).value == 55


class TestInvariants:
    def test_clean_system_passes(self):
        system = build_system()
        t = system.store("cpu", 0x1000, 1, 0).ready_tick
        t = system.load(GPU, 0x1000, t).ready_tick
        t = system.store(GPU, 0x2000, 2, t).ready_tick
        system.remote_store("cpu", GPU, 0x3000, 3, t)
        system.check_invariants()

    def test_detects_double_exclusive(self):
        system = build_system()
        system.store("cpu", 0x1000, 1, 0)
        # corrupt: force a second exclusive copy
        system.agents[GPU].cache.fill(0x1000, HammerState.MM, 0, {0: 2},
                                      dirty=True)
        with pytest.raises(AssertionError):
            system.check_invariants()

    def test_detects_two_owners(self):
        system = build_system()
        t = system.store("cpu", 0x1000, 1, 0).ready_tick
        system.load(GPU, 0x1000, t)  # cpu O, gpu S
        system.agents[GPU].cache.probe(0x1000).state = HammerState.O
        with pytest.raises(AssertionError):
            system.check_invariants()

    def test_detects_stale_copy_without_owner(self):
        system = build_system()
        t = system.store("cpu", 0x1000, 1, 0).ready_tick
        t = system.load(GPU, 0x1000, t).ready_tick   # cpu O, gpu S
        system.evict("cpu", 0x1000, t)               # O writes back
        shared = system.agents[GPU].cache.probe(0x1000)
        assert shared.state is HammerState.S
        system.check_invariants()
        shared.data[0] = 2                           # stale against memory
        with pytest.raises(AssertionError, match="diverges from memory"):
            system.check_invariants()
