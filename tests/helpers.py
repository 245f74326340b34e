"""Shared sweep helpers for the test suite."""

from __future__ import annotations

import random

from graphstates.graphs import Graph, all_graphs, random_graph  # noqa: F401  (re-exported)


def gnp_graph(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p): each edge present independently with probability p."""
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def random_bipartition_mask(rng: random.Random, n: int) -> int:
    """Nonempty strict subset of the vertices, as a mask for part A."""
    return rng.randrange(1, (1 << n) - 1)
