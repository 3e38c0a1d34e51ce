"""Randomized record tests of the port request path and coherence walk.

A fixed-seed random mix of loads, stores, and coalesced load batches is
driven through a freshly built two-agent system, and every observable —
the callback log (fire tick, ready tick, hit flag, value, data source),
acceptance ordering, final tick, events fired, and the full statistics
dump of every component — is hashed and compared with a pinned digest.
The digests were recorded while a second, layered per-message
implementation of the same walks still existed and agreed with this one
on every trial (the "scalar path" the test names refer to), so they are
that reference path's outputs.

The workloads are shaped to force the rare paths:

* a small line pool with same-tick bursts → pending-line races (MSHR
  merges and their replays);
* tiny MSHR files → full-file parking and the drain;
* a two-bank DRAM → bank conflicts (busy-until queueing).
"""

import hashlib
import json
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

#: sha256 of each trial's callback/acceptance log, final tick, events
#: fired and sorted statistics dump, recorded while the layered
#: reference path and the kernel still agreed on every one of them
PINNED_TRIALS = {
    (2, 2, 0):
        "778773f1881903b79368d2a6950082505529773d9b4094c326410bb24bd8d67b",
    (2, 2, 1):
        "7a1c30160d7e16f0c69bff26dcaff7ba1411965f9c36106500235bea0a3b7db0",
    (2, 2, 2):
        "e9128e009437a5474f786bae0e0cd92ae0308380ccb7b401b08eee316b25f00e",
    (4, 2, 0):
        "85f80e0283fbb4eca3cd66180abee9cbdb82bf2c0a017bdb4d683c70aed61ec5",
    (4, 2, 1):
        "6dda511bc25546e4b189accab7628ca959435f5c4d558e5a456a5fb200a505a5",
    (4, 2, 2):
        "da46f2cbf98587af1e3986d1b2b6baec5ec5b454a7484623629318f931829532",
    (16, 8, 0):
        "39dce5b064260b7ec7a9e6fe30784f9c094efbaf4262efd6451eca4019814e01",
    (16, 8, 1):
        "7ac8aeba46c218fb49eb5c0b4c6dc521fcd85131312b807b3e263057481f95ec",
    (16, 8, 2):
        "6698b8424ddd95eeea74e7ed4458e0f7089287e0f19423d9742a2a1f3fc85dbe",
}

#: the same digest over the park-and-drain case's log, tick and events
PINNED_PARK_AND_DRAIN = (
    "1838e40c302289c53188fd257dc207fdd970ea6421a5197242292c1f5e176c33")


def digest(payload):
    """sha256 of a JSON-serialisable run record."""
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def trial_digest(observed):
    log, now, events_fired, stats = observed[:4]
    return digest([log, now, events_fired, sorted(stats.items())])


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
    # (observation only; not part of the recorded digest)
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
def test_random_mix_matches_scalar_path(seed, num_mshrs, banks):
    observed = run_trial(seed, num_mshrs, banks)
    assert trial_digest(observed) == PINNED_TRIALS[(num_mshrs, banks,
                                                    seed)]


def test_stress_shape_reaches_the_fallback_paths():
    """The tiny configuration must actually hit every forced-rare case."""
    _log, _now, _events, stats, parked = run_trial(0, 2, 2)
    merges = (stats["cpu.port.mshr.merges"]
              + stats["gpu0.port.mshr.merges"])
    conflicts = stats["dram.row_misses"]
    assert merges > 0, "no pending-line races were generated"
    assert parked > 0, "the MSHR files never filled"
    assert conflicts > 0, "no DRAM bank/row conflicts were generated"


def test_park_and_drain_matches_scalar_path():
    """Directed MSHR-full case: 8 distinct lines through 2 entries.

    Parked requests drain in FIFO order as entries retire
    (``PortBatchKernel.drain_waiting``); the interleaving of the
    completions must match the pinned record of the reference path.
    """
    _system, sim, ports = build(num_mshrs=2, banks=2)
    log = []
    for index in range(8):
        ports["cpu"].load(
            index * LINE,
            lambda result, index=index:
            log.append((index, sim.queue.current_tick, result.hit)))
    sim.run()
    assert digest((log, sim.now, sim.events_fired)) == PINNED_PARK_AND_DRAIN
