"""Synthetic web-graph-like graphs for the triangle-count experiments.

The paper uses the public Google web graph (875 713 nodes, 5 105 039 edges).
Triangle-count accuracy under partition dropping depends on the graph's skew
and clustering, so the synthetic substitute is a power-law graph with tunable
clustering (Holme–Kim preferential attachment), scaled down so the real
multi-stage MapReduce triangle count runs quickly in tests and benchmarks.
networkx is imported only by the functions that use it, so importing the
package does not load it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

Edge = Tuple[int, int]


def synthetic_web_graph(
    num_nodes: int = 600,
    edges_per_node: int = 4,
    triangle_probability: float = 0.3,
    seed: int = 0,
) -> List[Edge]:
    """Generate a power-law graph with clustering; returns its edge list.

    The generator is Holme–Kim ``powerlaw_cluster_graph``: preferential
    attachment (heavy-tailed degrees, like a web graph) plus explicit triangle
    closure so the graph has a non-trivial triangle count to approximate.
    """
    if num_nodes <= edges_per_node:
        raise ValueError("num_nodes must exceed edges_per_node")
    if not 0.0 <= triangle_probability <= 1.0:
        raise ValueError("triangle_probability must be in [0, 1]")
    import networkx as nx

    graph = nx.powerlaw_cluster_graph(
        n=num_nodes, m=edges_per_node, p=triangle_probability, seed=seed
    )
    return [(int(u), int(v)) for u, v in graph.edges()]


def graph_statistics(edges: List[Edge]) -> dict:
    """Basic statistics of an edge list (nodes, edges, triangles, max degree)."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_edges_from(edges)
    triangle_total = sum(nx.triangles(graph).values()) // 3
    degrees = [d for _, d in graph.degree()]
    return {
        "nodes": graph.number_of_nodes(),
        "edges": graph.number_of_edges(),
        "triangles": triangle_total,
        "max_degree": max(degrees) if degrees else 0,
        "mean_degree": (sum(degrees) / len(degrees)) if degrees else 0.0,
    }


def edge_list_to_partitions(
    edges: List[Edge], num_partitions: int, seed: Optional[int] = None
) -> List[List[Edge]]:
    """Shuffle an edge list into partitions (HDFS block boundaries analogue)."""
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    order = list(edges)
    if seed is not None:
        rng = np.random.default_rng(seed)
        rng.shuffle(order)
    partitions: List[List[Edge]] = [[] for _ in range(num_partitions)]
    for index, edge in enumerate(order):
        partitions[index % num_partitions].append(edge)
    return partitions
