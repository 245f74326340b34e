"""Graph-state stabilizers of vertex sets: correlation indices and parities.

The product of the generators over a vertex set xi is
parity(xi) * X^(xi) * Z^(c(xi)) with all X factors to the left of all Z
factors; c(xi) is the correlation index and parity(xi) is (-1) to the
number of edges inside xi.
"""

from __future__ import annotations

from .graphs import Graph


def correlation_index(g: Graph, xi: int) -> int:
    """Symmetric difference of the neighborhoods of the vertices in xi.

    Equals the adjacency matrix applied to xi over GF(2).
    """
    adj = g.adj
    c = 0
    m = xi
    v = 0
    while m:
        if m & 1:
            c ^= adj[v]
        m >>= 1
        v += 1
    return c


def induced_edge_count(g: Graph, xi: int) -> int:
    """Number of edges of the subgraph induced by the vertex set xi."""
    adj = g.adj
    total = 0
    m = xi
    v = 0
    while m:
        if m & 1:
            total += (adj[v] & xi).bit_count()
        m >>= 1
        v += 1
    return total // 2


def stabilizer_parity(g: Graph, xi: int) -> int:
    """(-1) to the number of edges inside the xi-induced subgraph."""
    return -1 if induced_edge_count(g, xi) & 1 else 1
