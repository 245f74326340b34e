"""Bipartition correlation subgroups and exact Schmidt decompositions.

For a bipartition A|B the correlation-group representatives split into
three factor subgroups whose states separate across the cut, plus a
quotient that carries all the A:B correlation; the quotient size fixes
the Schmidt rank as an exact power of two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import gf2
from .bias import DyadicReal
from .gf2 import Basis
from .graphs import Bipartition, Graph
from .stab import correlation_index, stabilizer_parity
from .xchains import (
    XBasisExpansion,
    XChainData,
    correlation_state,
    factorize,
    global_sign,
)


@dataclass(frozen=True)
class PartitionGroups:
    """Factorization of the correlation representatives along a bipartition.

    reps       -- W, the span of the free-vertex singletons
    k_b        -- members whose correlation index lies inside B
    k_aa       -- members supported in A with correlation index inside A
    k_simb     -- members with index inside A, support leaving A, and even
                  edge cut against everything in k_b
    k_harpoon  -- complement of the three above inside W; its span labels
                  the Schmidt terms
    xdata      -- the graph's X-chain factorization (derived cache)
    """

    part: Bipartition
    reps: Basis
    k_b: Basis
    k_aa: Basis
    k_simb: Basis
    k_harpoon: Basis
    xdata: XChainData

    @cached_property
    def a_group(self) -> Basis:
        """k_aa + k_simb: the subgroup whose states are the A-side factors."""
        return gf2.rref(self.k_aa.rows + self.k_simb.rows, self.reps.width)


def _combine(w: Basis, coeffs: Basis) -> Basis:
    """Map coefficient vectors over w's rows back to vertex-set masks."""
    vecs = []
    for t in coeffs.rows:
        xi = 0
        for i in range(w.dim):
            if (t >> i) & 1:
                xi ^= w.rows[i]
        vecs.append(xi)
    return gf2.rref(vecs, w.width)


def partition_groups(g: Graph, part: Bipartition) -> PartitionGroups:
    """Split the correlation representatives into the four A|B subgroups."""
    if part.n != g.n:
        raise ValueError("bipartition size does not match the graph")
    xd = factorize(g)
    w = gf2.rref([1 << (v - 1) for v in xd.kappa], g.n)
    corr = [correlation_index(g, row) for row in w.rows]

    def constraint(positions: list[int], vectors: list[int]) -> list[int]:
        # one GF(2) equation per position: the combined vector bit must vanish
        return [
            sum(((vec >> p) & 1) << i for i, vec in enumerate(vectors))
            for p in positions
        ]

    pos_a = part.a_positions()
    pos_b = part.b_positions()

    k_b = _combine(w, gf2.kernel(constraint(pos_a, corr), w.dim))
    k_aa = _combine(
        w,
        gf2.kernel(
            constraint(pos_b, corr) + constraint(pos_b, list(w.rows)), w.dim
        ),
    )
    cut_rows = [
        sum((gf2.dot(w.rows[i], correlation_index(g, beta)) << i) for i in range(w.dim))
        for beta in k_b.rows
    ]
    u = _combine(w, gf2.kernel(constraint(pos_b, corr) + cut_rows, w.dim))
    k_simb = gf2.complement_basis(k_aa, u)
    separable = gf2.rref(k_aa.rows + k_simb.rows + k_b.rows, g.n)
    k_harpoon = gf2.complement_basis(separable, w)
    return PartitionGroups(part, w, k_b, k_aa, k_simb, k_harpoon, xd)


def schmidt_vectors(
    g: Graph, pg: PartitionGroups, xi: int
) -> tuple[int, XBasisExpansion, XBasisExpansion]:
    """Sign and the two separable factors of the xi-labelled Schmidt term."""
    if not gf2.contains(pg.k_harpoon, xi):
        raise ValueError("label lies outside the crossing-correlation span")
    sign = stabilizer_parity(g, xi)
    full_a = correlation_state(g, pg.xdata, pg.a_group, xi)
    full_b = correlation_state(g, pg.xdata, pg.k_b, xi)
    pos_a = pg.part.a_positions()
    pos_b = pg.part.b_positions()
    vec_a = XBasisExpansion(
        gf2.vertices_of(pg.part.a),
        pg.a_group.dim,
        {gf2.restrict(m, pos_a): s for m, s in full_a.terms.items()},
    )
    vec_b = XBasisExpansion(
        gf2.vertices_of(pg.part.b),
        pg.k_b.dim,
        {gf2.restrict(m, pos_b): s for m, s in full_b.terms.items()},
    )
    if len(vec_a.terms) != len(full_a.terms) or len(vec_b.terms) != len(full_b.terms):
        raise AssertionError("restriction collapsed distinct factor terms")
    return sign, vec_a, vec_b


@dataclass(frozen=True)
class SchmidtTerm:
    label: int
    sign: int
    vec_a: XBasisExpansion
    vec_b: XBasisExpansion


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Equal-coefficient Schmidt decomposition over the crossing labels.

    The reconstruction sum coeff * sign * vec_a (x) vec_b reproduces the
    graph state up to the documented global sign alpha.
    """

    part: Bipartition
    coeff: DyadicReal
    terms: tuple[SchmidtTerm, ...]
    alpha: int

    @property
    def rank(self) -> int:
        return len(self.terms)

    @property
    def k(self) -> int:
        """Log of the rank, which is also the geometric entanglement measure."""
        return self.coeff.half_log


def schmidt_decomposition(g: Graph, part: Bipartition) -> SchmidtDecomposition:
    """Exact Schmidt decomposition of the graph state along a bipartition.

    The number of crossing labels is checked against the cut rank.
    """
    pg = partition_groups(g, part)
    _, k, _ = schmidt_rank(g, part)
    if pg.k_harpoon.dim != k:
        raise AssertionError(
            f"rank bookkeeping mismatch: quotient {pg.k_harpoon.dim} vs cut rank {k}"
        )
    terms = []
    for xi in sorted(gf2.iter_span(pg.k_harpoon.rows)):
        sign, vec_a, vec_b = schmidt_vectors(g, pg, xi)
        terms.append(SchmidtTerm(xi, sign, vec_a, vec_b))
    return SchmidtDecomposition(
        part, DyadicReal(1, pg.k_harpoon.dim), tuple(terms), global_sign(g, pg.xdata)
    )


def schmidt_rank(g: Graph, part: Bipartition) -> tuple[int, int, int]:
    """Schmidt rank 2^k, its log, and the geometric entanglement measure k.

    k is the GF(2) rank of the adjacency block A[A, B], the cut rank of
    the bipartition (Hein, Eisert & Briegel, PRA 69, 062311 (2004)).
    """
    if part.n != g.n:
        raise ValueError("bipartition size does not match the graph")
    k = gf2.rank([g.adj[p] & part.b for p in part.a_positions()], g.n)
    return 1 << k, k, k
