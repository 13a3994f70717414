"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from typing import List

from repro.graph.digraph import DiGraph
from repro.graph.generators import gnm_random_graph
from repro.graph.graph import Graph
from repro.graph.weighted import WeightedGraph

INF = float("inf")


def random_graph(trial: int, max_n: int = 16, num_qualities: int = 4) -> Graph:
    """Deterministic pseudo-random graph for loop-style tests."""
    rng = random.Random(trial)
    n = rng.randint(2, max_n)
    max_edges = n * (n - 1) // 2
    m = rng.randint(0, min(3 * n, max_edges))
    return gnm_random_graph(n, m, num_qualities=num_qualities, seed=trial)


def random_digraph(trial: int, max_n: int = 12) -> DiGraph:
    """Deterministic pseudo-random digraph (qualities 1..4)."""
    rng = random.Random(trial)
    n = rng.randint(2, max_n)
    g = DiGraph(n)
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v, float(rng.randint(1, 4)))
    return g


def random_weighted_graph(trial: int, max_n: int = 12) -> WeightedGraph:
    """Deterministic pseudo-random weighted graph (lengths 1..9)."""
    rng = random.Random(trial)
    n = rng.randint(2, max_n)
    g = WeightedGraph(n)
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v, float(rng.randint(1, 9)), float(rng.randint(1, 4)))
    return g


def thresholds_for(graph: Graph) -> List[float]:
    """Interesting constraint values: each distinct quality, one below the
    minimum, midpoints between adjacent values, one above the maximum."""
    qualities = graph.distinct_qualities()
    if not qualities:
        return [1.0]
    values = list(qualities)
    values.append(qualities[0] - 0.5)
    values.append(qualities[-1] + 1.0)
    for a, b in zip(qualities, qualities[1:]):
        values.append((a + b) / 2.0)
    return values
