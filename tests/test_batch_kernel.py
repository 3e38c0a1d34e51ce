"""Randomized equivalence tests: batched coherence kernel vs scalar path.

Mirrors ``test_event_engine.py``'s reference-model property tests one
layer up: a fixed-seed random mix of loads, stores, and coalesced load
batches is driven through two freshly built systems — one with the
batched kernel installed over the ports (the default), one with
``REPRO_BATCH_KERNEL=0`` forcing the layered per-message reference path
— and every observable must match exactly: the callback log (fire tick,
ready tick, hit flag, value, data source), acceptance ordering, final
tick, events fired, and the full statistics dump of every component.

The workloads are shaped to force the kernel's fallback/rare paths:

* a small line pool with same-tick bursts → pending-line races (MSHR
  merges and the kernel's ``_replay`` re-issue);
* tiny MSHR files → full-file parking and the fused drain;
* a two-bank DRAM → bank conflicts (busy-until queueing).
"""

import random

import pytest

from repro.coherence.hammer import CoherentAgent, HammerSystem
from repro.coherence.port import CoherentPort
from repro.engine.clock import ClockDomain
from repro.engine.simulator import Simulator
from repro.interconnect.network import Crossbar
from repro.mem.cache import SetAssociativeCache
from repro.mem.dram import DramConfig, DramModel
from repro.mem.memimage import MemoryImage

LINE = 128


def build(num_mshrs, banks):
    clock = ClockDomain("mem", 1e9)
    network = Crossbar("net", clock, ["cpu", "gpu0", "memctrl"])
    dram = DramModel(DramConfig(size_bytes=16 * 1024 * 1024,
                                ranks_per_channel=1,
                                banks_per_rank=banks))
    system = HammerSystem(network, dram, MemoryImage(), clock)
    system.add_agent(CoherentAgent(
        "cpu", SetAssociativeCache("cpu.l2", 4 * 1024, 2), clock, 10))
    system.add_agent(CoherentAgent(
        "gpu0", SetAssociativeCache("gpu0.l2", 4 * 1024, 2), clock, 8))
    sim = Simulator()
    ports = {name: CoherentPort(f"{name}.port", name, system, sim.queue,
                                num_mshrs=num_mshrs)
             for name in ("cpu", "gpu0")}
    return system, sim, ports


def run_trial(seed, num_mshrs, banks, n_ops=240):
    """One fixed-seed random run; returns every observable output."""
    rng = random.Random(seed)
    system, sim, ports = build(num_mshrs, banks)
    log = []
    # a small pool of lines makes same-line races routine; the stride
    # spreads the pool across DRAM rows and banks so revisits conflict
    lines = [index * (2048 + LINE) for index in range(12)]
    tick = 0
    # peak MSHR-full parking depth, sampled whenever any callback fires
    # (observation only; not part of the equivalence comparison)
    parked = [0]

    def make_cb(label):
        def callback(result):
            depth = max(len(port._waiting) for port in ports.values())
            if depth > parked[0]:
                parked[0] = depth
            log.append((label, sim.queue.current_tick, result.ready_tick,
                        result.hit, result.value, result.source))
        return callback

    for step in range(n_ops):
        # zero-increment rolls cluster several issues on one tick:
        # that is what exercises in-flight merges and MSHR-full parking
        tick += rng.randrange(0, 3)
        port = ports[rng.choice(("cpu", "gpu0"))]
        address = rng.choice(lines) + rng.randrange(0, LINE // 4) * 4
        roll = rng.random()
        if roll < 0.20:
            # a coalesced multi-line batch (distinct lines, as the
            # coalescer guarantees), possibly racing in-flight lines
            chosen = rng.sample(lines, rng.randrange(2, 5))
            requests = [(line + 4 * index, make_cb(f"b{step}.{index}"))
                        for index, line in enumerate(chosen)]
            sim.queue.post_at(
                tick,
                lambda port=port, requests=requests:
                port.load_batch(requests))
        elif roll < 0.55:
            sim.queue.post_at(
                tick,
                lambda port=port, address=address, cb=make_cb(f"l{step}"):
                port.load(address, cb))
        else:
            value = rng.randrange(1 << 16)
            on_accept = None
            if rng.random() < 0.5:
                def on_accept(label=f"a{step}"):
                    log.append((label, sim.queue.current_tick))
            sim.queue.post_at(
                tick,
                lambda port=port, address=address, value=value,
                cb=make_cb(f"s{step}"), on_accept=on_accept:
                port.store(address, value, cb, on_accept=on_accept))
    sim.run()

    stats = {}
    stats.update(system.stats.dump())
    stats.update(system.dram.stats.dump())
    stats.update(system.network.stats.dump())
    for port in ports.values():
        stats.update(port.mshrs.stats.dump())
    for agent in system.agents.values():
        stats.update(agent.cache.stats.dump())
    return log, sim.now, sim.events_fired, stats, parked[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("num_mshrs,banks",
                         [(2, 2), (4, 2), (16, 8)],
                         ids=["tiny-mshr", "small-mshr", "roomy"])
def test_random_mix_matches_scalar_path(monkeypatch, seed, num_mshrs,
                                        banks):
    monkeypatch.delenv("REPRO_BATCH_KERNEL", raising=False)
    fused = run_trial(seed, num_mshrs, banks)
    monkeypatch.setenv("REPRO_BATCH_KERNEL", "0")
    reference = run_trial(seed, num_mshrs, banks)
    assert fused[0] == reference[0]      # callback + acceptance log
    assert fused[1] == reference[1]      # final tick
    assert fused[2] == reference[2]      # events fired
    assert fused[3] == reference[3]      # full statistics dump


def test_stress_shape_reaches_the_fallback_paths(monkeypatch):
    """The tiny configuration must actually hit every forced-rare case."""
    monkeypatch.delenv("REPRO_BATCH_KERNEL", raising=False)
    _log, _now, _events, stats, parked = run_trial(0, 2, 2)
    merges = (stats["cpu.port.mshr.merges"]
              + stats["gpu0.port.mshr.merges"])
    conflicts = stats["dram.row_misses"]
    assert merges > 0, "no pending-line races were generated"
    assert parked > 0, "the MSHR files never filled"
    assert conflicts > 0, "no DRAM bank/row conflicts were generated"


def test_park_and_drain_matches_scalar_path(monkeypatch):
    """Directed MSHR-full case: 8 distinct lines through 2 entries.

    With the kernel installed every parked request drains through the
    fused walk (``PortBatchKernel.drain_waiting``); with
    ``REPRO_BATCH_KERNEL=0`` through the reference ``_request``.  The
    two paths must interleave the completions identically.
    """
    outcomes = {}
    for kernel in (True, False):
        if kernel:
            monkeypatch.delenv("REPRO_BATCH_KERNEL", raising=False)
        else:
            monkeypatch.setenv("REPRO_BATCH_KERNEL", "0")
        _system, sim, ports = build(num_mshrs=2, banks=2)
        log = []
        for index in range(8):
            ports["cpu"].load(
                index * LINE,
                lambda result, index=index:
                log.append((index, sim.queue.current_tick, result.hit)))
        sim.run()
        outcomes[kernel] = (log, sim.now, sim.events_fired)
    assert outcomes[True] == outcomes[False]


def test_untraced_kernel_run_never_enters_layered_path(monkeypatch):
    """PT small under CCSM parks GPU-slice stores on full MSHR files.

    With the kernel on, an untraced run issues, replays and drains
    every request through the fused walk, so the layered
    ``CoherentPort._request`` is never called; with
    ``REPRO_BATCH_KERNEL=0`` it carries every request.  Both runs
    reproduce the committed ``perfbench/reference.json`` signature.
    """
    import sys
    from pathlib import Path

    from repro.core.protocol_mode import CoherenceMode

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                           / "perfbench"))
    from suite import (BASE_CTX_SEED, load_reference, point_key,
                       run_point, signature)

    layered = CoherentPort._request
    calls = []

    def counting_request(self, *args, **kwargs):
        calls.append(self.name)
        return layered(self, *args, **kwargs)

    monkeypatch.setattr(CoherentPort, "_request", counting_request)
    expected = load_reference()["points"][point_key("PT",
                                                    CoherenceMode.CCSM)]
    observed = {}
    for knob in ("1", "0"):
        monkeypatch.setenv("REPRO_BATCH_KERNEL", knob)
        calls.clear()
        result = run_point("PT", CoherenceMode.CCSM, BASE_CTX_SEED)
        observed[knob] = len(calls)
        assert signature(result) == expected, knob
    assert observed["1"] == 0
    assert observed["0"] > 0
