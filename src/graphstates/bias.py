"""Bias degrees, exact overlaps, Z-balance tests, balanced catalogs.

Every graph-state overlap is of the form sign * 2^(-m/2) or exactly zero,
so all results are carried symbolically by DyadicReal and compared with
exact equality.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import permutations
from typing import NamedTuple

from .graphs import Graph, all_graphs, graph_symmetric_difference
from .stab import induced_edge_count
from .xchains import factorize, global_sign

MAX_BALANCED_N = 5  # the catalog walks all labeled graphs and all n! relabelings


class DyadicReal(namedtuple("DyadicReal", "sign half_log")):
    """sign * 2^(-half_log/2), with sign in {-1, 0, +1}; zero has half_log 0."""

    __slots__ = ()

    def __new__(cls, sign: int, half_log: int):
        if sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if half_log < 0:
            raise ValueError("half_log must be nonnegative")
        if sign == 0 and half_log != 0:
            raise ValueError("zero must be canonical (half_log 0)")
        return tuple.__new__(cls, (sign, half_log))

    @classmethod
    def zero(cls) -> "DyadicReal":
        return cls(0, 0)

    def approx(self) -> float:
        return self.sign * 2.0 ** (-self.half_log / 2)

    def __str__(self):
        if self.sign == 0:
            return "0"
        return f"{'+' if self.sign > 0 else '-'}2^-{self.half_log}/2"


def bias_degree(g: Graph) -> DyadicReal:
    """Overlap of the graph state with the all-plus product state.

    Zero iff some X-chain generator has negative parity; otherwise the
    magnitude is 2^(-(n - dim Gamma)/2) and the sign is the global sign
    of the X-basis expansion.
    """
    xd = factorize(g)
    if xd.x_gamma:
        return DyadicReal.zero()
    return DyadicReal(global_sign(g, xd), g.n - xd.gamma.dim)


def overlap(g: Graph, h: Graph) -> DyadicReal:
    """Exact inner product of two graph states on the same vertex set."""
    if g.n != h.n:
        raise ValueError("graphs have different vertex counts")
    return bias_degree(graph_symmetric_difference(g, h))


def is_balanced(g: Graph) -> bool:
    """True iff the graph state has zero bias degree.

    Equivalent to some X-chain generator having an odd induced edge count;
    since parity is multiplicative on the X-chain group, checking the
    canonical generators suffices.
    """
    return factorize(g).x_gamma != 0


class BalancedClass(NamedTuple):
    """One isomorphism class of balanced graphs with its odd-edge witness."""

    graph: Graph
    witness: int
    witness_edge_count: int


def enumerate_balanced(n: int) -> list[BalancedClass]:
    """All isomorphism classes of balanced graphs on n vertices.

    Walks all 2^C(n,2) labeled graphs, so n is capped at 5.  The first
    balanced graph of a class adds its orbit, the n! relabeled adjacency
    tuples, to `seen`, so later members of the class are skipped; the
    least tuple of the orbit represents the class.  Each class carries
    an X-chain generator whose induced subgraph has an odd edge count.
    """
    if n > MAX_BALANCED_N:
        raise ValueError(f"balanced catalog enumeration is capped at n <= {MAX_BALANCED_N}")
    seen = set()
    classes = []
    for g in all_graphs(n):
        if g.adj in seen or not is_balanced(g):
            continue
        adj = g.adj
        # order[i] is the vertex that takes position i
        orbit = {
            tuple(sum(1 << i for i, u in enumerate(order) if adj[v] >> u & 1) for v in order)
            for order in permutations(range(n))
        }
        seen |= orbit
        canon = Graph(n, min(orbit))
        xd = factorize(canon)
        # the generators of negative parity are those whose pivots make up x_Gamma
        gens = zip(xd.gamma.pivots, xd.gamma.rows)
        witness = next(row for p, row in gens if xd.x_gamma >> p & 1)
        classes.append(BalancedClass(canon, witness, induced_edge_count(canon, witness)))
    return sorted(classes, key=lambda c: (c.graph.edge_count(), c.graph.adj))
