"""Shared sweep helpers for the test suite."""

from __future__ import annotations

import random

from graphstates.graphs import Graph


def all_graphs(n: int):
    """Every labeled simple graph on n vertices."""
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(slots)):
        adj = [0] * n
        m = mask
        for u, v in slots:
            if m & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            m >>= 1
        yield Graph(n, tuple(adj))


def random_graph(rng: random.Random, n: int) -> Graph:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.getrandbits(1):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


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
