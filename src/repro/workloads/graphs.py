"""Synthetic graph inputs for the Pannotia benchmarks.

The paper runs Pannotia on two graph families: ``power`` (the Western
US power grid: sparse, near-planar, low degree) and ``delaunay-nXX``
(Delaunay triangulations of random points: planar, average degree ≈ 6).
Neither file is redistributable here, so we generate structurally
matching graphs with networkx:

* :func:`power_grid_graph` — a Watts-Strogatz small-world graph with
  degree 4 and low rewiring, matching the power grid's sparsity and
  locality;
* :func:`delaunay_like_graph` — a random geometric graph whose radius
  is tuned for average degree ≈ 6, matching a Delaunay mesh's locality
  (neighbours are spatially close, so neighbour indices are *mostly*
  nearby — the same partial coalescing signature).

Both are deterministic for a given seed.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import networkx as nx


def power_grid_graph(num_nodes: int = 494, seed: int = 7) -> nx.Graph:
    """A power-grid-like sparse graph (degree ~4, high locality)."""
    num_nodes = max(8, num_nodes)
    graph = nx.connected_watts_strogatz_graph(
        num_nodes, k=4, p=0.05, seed=seed, tries=200)
    return nx.convert_node_labels_to_integers(graph)


def delaunay_like_graph(num_nodes: int = 8192, seed: int = 7) -> nx.Graph:
    """A Delaunay-like planar-ish graph (average degree ~6)."""
    num_nodes = max(8, num_nodes)
    # radius for expected degree ~6 in a unit square: d = pi r^2 n
    radius = math.sqrt(6.0 / (math.pi * num_nodes))
    graph = nx.random_geometric_graph(num_nodes, radius, seed=seed)
    # geometric graphs can be disconnected; keep it single-component so
    # traversal kernels touch everything
    components = list(nx.connected_components(graph))
    for previous, current in zip(components, components[1:]):
        graph.add_edge(next(iter(previous)), next(iter(current)))
    return nx.convert_node_labels_to_integers(graph)


def csr_arrays(graph: nx.Graph) -> Tuple[List[int], List[int]]:
    """Compressed-sparse-row (row_offsets, column_indices) of *graph*.

    This is the layout every Pannotia kernel traverses: ``row_offsets``
    is streamed, ``column_indices`` drives the irregular gathers into
    per-node data.
    """
    row_offsets = [0]
    column_indices: List[int] = []
    for node in sorted(graph.nodes):
        neighbors = sorted(graph.neighbors(node))
        column_indices.extend(neighbors)
        row_offsets.append(len(column_indices))
    return row_offsets, column_indices
