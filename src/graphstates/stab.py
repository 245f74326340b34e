"""Graph-state stabilizers: generators, induced stabilizers, parities.

Every stabilizer is kept in the normal form phase * X^(x_set) * Z^(z_set)
with all X factors to the left of all Z factors; phases stay in {+1, -1}
throughout because x_set and c(x_set) always share an even number of
vertices for graph adjacencies.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf2
from .graphs import Graph


@dataclass(frozen=True)
class PauliStabilizer:
    """phase * sigma_X^(x_set) * sigma_Z^(z_set) on `width` qubits."""

    width: int
    phase: int
    x_set: int
    z_set: int

    def __post_init__(self):
        if self.phase not in (1, -1):
            raise ValueError("phase must be +1 or -1")

    def __str__(self):
        parts = [] if self.phase == 1 else ["-"]
        if self.x_set:
            parts.append("X{" + ",".join(map(str, gf2.vertices_of(self.x_set))) + "}")
        if self.z_set:
            parts.append("Z{" + ",".join(map(str, gf2.vertices_of(self.z_set))) + "}")
        if not self.x_set and not self.z_set:
            parts.append("I")
        return "".join(parts) if parts != ["-"] else "-I"


def generator(g: Graph, v: int) -> PauliStabilizer:
    """Stabilizer generator of vertex v: X on v, Z on its neighborhood."""
    return PauliStabilizer(g.n, 1, 1 << (v - 1), g.neighbors(v))


def correlation_index(g: Graph, xi: int) -> int:
    """Symmetric difference of the neighborhoods of the vertices in xi.

    Equals the adjacency matrix applied to xi over GF(2).
    """
    c = 0
    m = xi
    v = 0
    while m:
        if m & 1:
            c ^= g.adj[v]
        m >>= 1
        v += 1
    return c


def induced_edge_count(g: Graph, xi: int) -> int:
    """Number of edges of the subgraph induced by the vertex set xi."""
    total = 0
    m = xi
    v = 0
    while m:
        if m & 1:
            total += (g.adj[v] & xi).bit_count()
        m >>= 1
        v += 1
    return total // 2


def stabilizer_parity(g: Graph, xi: int) -> int:
    """(-1) to the number of edges inside the xi-induced subgraph."""
    return -1 if induced_edge_count(g, xi) & 1 else 1


def induced_stabilizer(g: Graph, xi: int) -> PauliStabilizer:
    """Product of the generators over xi, in X-then-Z normal form."""
    return PauliStabilizer(g.n, stabilizer_parity(g, xi), xi, correlation_index(g, xi))


def cut_parity(g: Graph, a: int, b: int) -> int:
    """Parity of the number of edges between vertex sets a and b.

    Defined as the GF(2) bilinear form a^T A b; for overlapping sets this
    is the unique extension consistent with parity multiplication.
    """
    return gf2.dot(a, correlation_index(g, b))

