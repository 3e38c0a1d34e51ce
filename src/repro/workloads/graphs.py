"""Synthetic graph inputs for the Pannotia benchmarks.

The paper runs Pannotia on two graph families: ``power`` (the Western
US power grid: sparse, near-planar, low degree) and ``delaunay-nXX``
(Delaunay triangulations of random points: planar, average degree ≈ 6).
Neither file is redistributable here, so we generate structurally
matching graphs in plain Python:

* :func:`power_grid_graph` — a Watts-Strogatz small-world graph with
  degree 4 and low rewiring, matching the power grid's sparsity and
  locality;
* :func:`delaunay_like_graph` — a random geometric graph whose radius
  is tuned for average degree ≈ 6, matching a Delaunay mesh's locality
  (neighbours are spatially close, so neighbour indices are *mostly*
  nearby — the same partial coalescing signature).

A graph is an adjacency dict: node ``0 … n-1`` → its neighbours in
ascending order.  Both generators are deterministic for a given seed and
make the same ``random.Random`` draws, in the same order, as networkx's
``connected_watts_strogatz_graph`` and ``random_geometric_graph`` (plus
the component bridging below), so they produce the same edge sets as
those functions did.
"""

from __future__ import annotations

import math
import random
from bisect import insort
from typing import Dict, Iterable, List, Mapping, Set, Tuple

#: node → neighbours, ascending
Adjacency = Dict[int, List[int]]


def _bfs(adjacency: Mapping[int, Iterable[int]], source: int,
         remaining: int) -> Set[int]:
    """Nodes reachable from *source*, inserted in BFS order.

    The insertion order fixes the set's iteration order, which the
    component bridging in :func:`delaunay_like_graph` reads; it stops
    as soon as all *remaining* unvisited nodes are seen.
    """
    seen = {source}
    next_level = [source]
    while next_level:
        this_level = next_level
        next_level = []
        for node in this_level:
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    next_level.append(neighbor)
            if len(seen) == remaining:
                return seen
    return seen


def _connected_components(adjacency: Mapping[int, Iterable[int]]
                          ) -> List[Set[int]]:
    """Connected components, in order of their lowest node."""
    seen: Set[int] = set()
    components = []
    for node in adjacency:
        if node not in seen:
            component = _bfs(adjacency, node, len(adjacency) - len(seen))
            seen.update(component)
            components.append(component)
    return components


def _watts_strogatz(num_nodes: int, k: int, p: float,
                    rng: random.Random) -> Dict[int, Set[int]]:
    """One ring lattice of degree *k* with each edge rewired w.p. *p*."""
    nodes = list(range(num_nodes))
    adjacency: Dict[int, Set[int]] = {node: set() for node in nodes}
    for hop in range(1, k // 2 + 1):
        for node in nodes:
            target = (node + hop) % num_nodes
            adjacency[node].add(target)
            adjacency[target].add(node)
    # rewire hop by hop, node by node; no self-loops or multi-edges
    for hop in range(1, k // 2 + 1):
        for node in nodes:
            if rng.random() < p:
                neighbors = adjacency[node]
                new = rng.choice(nodes)
                while new == node or new in neighbors:
                    new = rng.choice(nodes)
                    if len(neighbors) >= num_nodes - 1:
                        break  # saturated: skip this rewiring
                else:
                    old = (node + hop) % num_nodes
                    neighbors.remove(old)
                    adjacency[old].remove(node)
                    neighbors.add(new)
                    adjacency[new].add(node)
    return adjacency


def power_grid_graph(num_nodes: int = 494, seed: int = 7) -> Adjacency:
    """A power-grid-like sparse graph (degree ~4, high locality).

    Rejection-samples Watts-Strogatz graphs from one seeded stream until
    one is connected (at most 200 tries).
    """
    num_nodes = max(8, num_nodes)
    rng = random.Random(seed)
    for _try in range(200):
        adjacency = _watts_strogatz(num_nodes, 4, 0.05, rng)
        if len(_bfs(adjacency, 0, num_nodes)) == num_nodes:
            return {node: sorted(neighbors)
                    for node, neighbors in adjacency.items()}
    raise RuntimeError(
        f"no connected Watts-Strogatz graph on {num_nodes} nodes in "
        f"200 tries (seed {seed})")


def delaunay_like_graph(num_nodes: int = 8192, seed: int = 7) -> Adjacency:
    """A Delaunay-like planar-ish graph (average degree ~6).

    Points are uniform in the unit square; two nodes are adjacent when
    their Euclidean distance is at most the radius.  Candidate pairs come
    from a grid of cells at least one radius wide, so only the 3×3
    neighbouring cells of each point are searched.
    """
    num_nodes = max(8, num_nodes)
    # radius for expected degree ~6 in a unit square: d = pi r^2 n
    radius = math.sqrt(6.0 / (math.pi * num_nodes))
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(num_nodes)]
    cells = max(1, int(1.0 / radius))
    grid: Dict[Tuple[int, int], List[int]] = {}
    for node, (x, y) in enumerate(points):
        key = (min(int(x * cells), cells - 1), min(int(y * cells), cells - 1))
        grid.setdefault(key, []).append(node)
    radius_sq = radius * radius
    adjacency: Adjacency = {node: [] for node in range(num_nodes)}
    for (cx, cy), members in grid.items():
        candidates = [other
                      for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                      for other in grid.get((cx + dx, cy + dy), ())]
        for node in members:
            x, y = points[node]
            for other in candidates:
                if other > node:
                    ox, oy = points[other]
                    dx, dy = x - ox, y - oy
                    if dx * dx + dy * dy <= radius_sq:
                        adjacency[node].append(other)
                        adjacency[other].append(node)
    for neighbors in adjacency.values():
        neighbors.sort()
    # geometric graphs can be disconnected; keep it single-component so
    # traversal kernels touch everything
    components = _connected_components(adjacency)
    for previous, current in zip(components, components[1:]):
        a, b = next(iter(previous)), next(iter(current))
        insort(adjacency[a], b)
        insort(adjacency[b], a)
    return adjacency


def csr_arrays(graph: Mapping[int, Iterable[int]]
               ) -> Tuple[List[int], List[int]]:
    """Compressed-sparse-row (row_offsets, column_indices) of *graph*.

    *graph* maps each node to its neighbours (an adjacency dict, or any
    mapping such as a networkx graph).  This is the layout every
    Pannotia kernel traverses: ``row_offsets`` is streamed,
    ``column_indices`` drives the irregular gathers into per-node data.
    """
    row_offsets = [0]
    column_indices: List[int] = []
    for node in sorted(graph):
        column_indices.extend(sorted(graph[node]))
        row_offsets.append(len(column_indices))
    return row_offsets, column_indices
