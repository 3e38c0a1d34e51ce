"""Exhaustive explicit-state search over the real Hammer walks.

A Murphi-style check of the protocol at a small scope: a CPU agent, one
GPU L2 slice, the dedicated direct-store network and a value-tracking
memory image, driven through the synchronous ``HammerSystem`` API — the
same coherence walk every port request takes, not a re-model.

From the empty system, a breadth-first search applies every action to
every line: CPU load/store, GPU load/store, remote store, uncached CPU
load, and eviction at either agent.  Each store writes a fresh value.
After every step ``check_invariants`` must hold (one owner, exclusivity,
copies agree with the owner or memory) and every read must return what
a flat reference memory holds.  States are deduplicated by their
abstraction: per agent and line, the state, the dirty bit and whether
the copy holds the latest value, plus whether memory does.

A successor is rebuilt by replaying its action path on a fresh system,
so no state is ever copied out of the simulator.  The recorded state
counts are part of the assertion: a walk change that opens (or closes)
states shows up here even when it stays safe.
"""

from repro.coherence.hammer import CoherentAgent, HammerSystem
from repro.coherence.states import HammerState
from repro.engine.clock import ClockDomain
from repro.interconnect.direct_network import DirectStoreNetwork
from repro.interconnect.network import Crossbar
from repro.mem.cache import SetAssociativeCache
from repro.mem.dram import DramConfig, DramModel
from repro.mem.memimage import MemoryImage

GPU = "gpu.l2.slice0"
AGENTS = ("cpu", GPU)
LINE = 128
ACTIONS = ("cpu_load", "cpu_store", "gpu_load", "gpu_store",
           "remote_store", "uncached_load", "evict_cpu", "evict_gpu")


def build_system(ways):
    """Both caches hold one set of *ways* ways, so every line conflicts."""
    clock = ClockDomain("mem", 1e9)
    network = Crossbar("net", clock, ["cpu", GPU, "memctrl"])
    dram = DramModel(DramConfig(size_bytes=1024 * 1024))
    system = HammerSystem(network, dram, MemoryImage(), clock)
    for name in AGENTS:
        system.add_agent(CoherentAgent(
            name, SetAssociativeCache(name, ways * LINE, ways, LINE),
            clock, 10))
    system.attach_direct_network(
        DirectStoreNetwork("dsnet", clock, "cpu", [GPU]))
    return system


def replay(path, ways):
    """Run *path* on a fresh system, checking safety after every step."""
    system = build_system(ways)
    reference = {}
    tick = 0
    stores = 0
    for action, line in path:
        address = line * LINE
        if action in ("cpu_store", "gpu_store", "remote_store"):
            stores += 1
            if action == "remote_store":
                result = system.remote_store("cpu", GPU, address, stores,
                                             tick)
            else:
                agent = "cpu" if action == "cpu_store" else GPU
                result = system.store(agent, address, stores, tick)
            reference[line] = stores
            tick = result.ready_tick
        elif action in ("evict_cpu", "evict_gpu"):
            system.evict("cpu" if action == "evict_cpu" else GPU, address,
                         tick)
        else:
            if action == "uncached_load":
                result = system.uncached_load("cpu", address, tick)
            else:
                agent = "cpu" if action == "cpu_load" else GPU
                result = system.load(agent, address, tick)
            assert result.value == reference.get(line, 0), (
                f"{action} of line {line} read {result.value}, expected "
                f"{reference.get(line, 0)} after {path}")
            tick = result.ready_tick
        system.check_invariants()
    return system, reference


def abstract_state(system, reference, lines):
    state = []
    for line in range(lines):
        latest = reference.get(line, 0)
        for name in AGENTS:
            copy = system.agents[name].cache.probe(line * LINE)
            if copy is None:
                state.append(None)
            else:
                held = (copy.data or {}).get(0, 0) == latest
                state.append((copy.state, copy.dirty, held))
        state.append(system.image.read_word(line * LINE) == latest)
    return tuple(state)


def explore(lines, ways, max_depth):
    """Breadth-first search to *max_depth* or a fixed point.

    Returns ``(seen, depth, fixed_point)``: the set of distinct
    abstract states reached, the depth at which the last new one appeared, and
    whether a whole level added nothing.
    """
    moves = [(action, line) for line in range(lines) for action in ACTIONS]
    system, reference = replay((), ways)
    seen = {abstract_state(system, reference, lines)}
    frontier = [()]
    depth = 0
    for level in range(1, max_depth + 1):
        successors = []
        for path in frontier:
            for move in moves:
                successor = path + (move,)
                system, reference = replay(successor, ways)
                state = abstract_state(system, reference, lines)
                if state not in seen:
                    seen.add(state)
                    successors.append(successor)
        if not successors:
            return seen, depth, True
        depth = level
        frontier = successors
    return seen, depth, False


def test_two_lines_in_one_way_reach_a_fixed_point():
    seen, depth, fixed_point = explore(lines=2, ways=1, max_depth=8)
    assert fixed_point
    assert (len(seen), depth) == (63, 4)
    # the scope reaches every valid state at both agents (per line the
    # abstract state holds the CPU copy, the GPU copy, then memory)
    reached = {(AGENTS[index % 3], entry[0])
               for state in seen for index, entry in enumerate(state)
               if index % 3 != 2 and entry is not None}
    assert reached == {(agent, stable) for agent in AGENTS
                       for stable in HammerState
                       if stable is not HammerState.I}


def test_three_lines_in_two_ways_to_depth_six():
    seen, depth, fixed_point = explore(lines=3, ways=2, max_depth=6)
    assert not fixed_point
    assert (len(seen), depth) == (1642, 6)
