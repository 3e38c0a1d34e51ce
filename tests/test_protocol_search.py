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

The same search also ties the walks to their specification: around
every step it records each agent's and line's ``(state before, event,
state after)`` and checks the set against ``PROTOCOL_TABLE``.
"""

from repro.coherence.hammer import CoherentAgent, HammerSystem
from repro.coherence.protocol_table import PROTOCOL_TABLE, ProtocolEvent
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


def residency(system):
    """``(agent, line) -> state`` of every resident line."""
    return {(name, address // LINE): copy.state for name in AGENTS
            for address, copy in system.agents[name].cache.resident_lines()}


def replay(path, ways, on_step=None):
    """Run *path* on a fresh system, checking safety after every step.

    *on_step*, if given, sees each step as ``(action, line, residency
    before, residency after)``.
    """
    system = build_system(ways)
    reference = {}
    tick = 0
    stores = 0
    for action, line in path:
        address = line * LINE
        if on_step is not None:
            before = residency(system)
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
        if on_step is not None:
            on_step(action, line, before, residency(system))
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


def explore(lines, ways, max_depth, on_step=None):
    """Breadth-first search to *max_depth* or a fixed point.

    Returns ``(seen, depth, fixed_point)``: the set of distinct
    abstract states reached, the depth at which the last new one appeared, and
    whether a whole level added nothing.  *on_step* is passed to every
    :func:`replay`.
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
                system, reference = replay(successor, ways, on_step)
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


_I = HammerState.I
_E = ProtocolEvent

#: demand action -> (requester, other agent, event, probe on a miss)
REQUESTS = {
    "cpu_load": ("cpu", GPU, _E.LOAD, _E.PROBE_GETS),
    "cpu_store": ("cpu", GPU, _E.STORE, _E.PROBE_GETX),
    "gpu_load": (GPU, "cpu", _E.LOAD, _E.PROBE_GETS),
    "gpu_store": (GPU, "cpu", _E.STORE, _E.PROBE_GETX),
}

#: the two next states the engine takes from policy instead of the table
POLICIES = {
    # Hammer's exclusive-clean grant: a load miss that finds no other
    # copy fills in M
    (_I, _E.LOAD, HammerState.M),
    # §III-A: a forward to a full GPU L2 set goes to DRAM, the slice
    # stays in I
    (_I, _E.REMOTE_STORE_ARRIVE, _I),
}


def step_events(action, line, before):
    """``(agent, line) -> event`` for the transitions *action* names.

    The requester sees its LOAD/STORE, and the other agent a probe when
    the request misses or a store upgrades an S/O copy; a remote store
    is REMOTE_STORE_LOCAL at the CPU and REMOTE_STORE_ARRIVE at the
    slice.  Uncached loads and evictions name none: a line a step
    removes without an event was replaced.
    """
    if action == "remote_store":
        return {("cpu", line): _E.REMOTE_STORE_LOCAL,
                (GPU, line): _E.REMOTE_STORE_ARRIVE}
    if action not in REQUESTS:
        return {}
    agent, other, event, probe = REQUESTS[action]
    events = {(agent, line): event}
    state = before.get((agent, line), _I)
    if state is _I or (event is _E.STORE
                       and state in (HammerState.S, HammerState.O)):
        events[(other, line)] = probe
    return events


def test_walks_perform_exactly_the_table():
    """Every transition the walks perform is a table row or one of the
    two named policies, and every one of the table's 34 ``(state,
    event)`` keys is reached (an absent line counts as I)."""
    triples = set()

    def record(action, line, before, after):
        events = step_events(action, line, before)
        for key in before.keys() | after.keys() | events.keys():
            old, new = before.get(key, _I), after.get(key, _I)
            event = events.get(key)
            if event is None:
                if old is new:
                    continue
                assert new is _I, (
                    f"{action} of line {line} moved {key} {old} -> {new}")
                event = _E.REPLACEMENT
            triples.add((old, event, new))

    explore(lines=2, ways=1, max_depth=8, on_step=record)
    rows = {(state, event, new)
            for (state, event), (new, _action) in PROTOCOL_TABLE.items()}
    assert triples - rows == POLICIES
    reached = {(state, event) for state, event, _new in triples & rows}
    assert reached == set(PROTOCOL_TABLE), sorted(
        (state.value, event.value)
        for state, event in set(PROTOCOL_TABLE) - reached)
