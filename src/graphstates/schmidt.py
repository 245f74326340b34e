"""Bipartition correlation subgroups and exact Schmidt decompositions.

For a bipartition A|B the correlation-group representatives split into
three factor subgroups whose states separate across the cut, plus a
quotient that carries all the A:B correlation; the quotient size fixes
the Schmidt rank as an exact power of two.
"""

from __future__ import annotations

from typing import NamedTuple

from . import gf2
from .bias import DyadicReal
from .gf2 import Basis
from .graphs import Bipartition, Graph
from .stab import correlation_index, stabilizer_parity
from .xchains import (
    EXPANSION_LIMIT,
    XBasisExpansion,
    XChainData,
    correlation_state,
    factorize,
    global_sign,
)


class PartitionGroups(NamedTuple):
    """Factorization of the correlation representatives along a bipartition.

    W = xdata.free_span is spanned by the free-vertex singletons, so each
    subgroup is a GF(2) kernel over vertex masks: x lies in W iff it
    misses every exclusive vertex, and bit p of the correlation index of
    x is adj[p] . x.

    k_b        -- members of W whose correlation index misses A
    k_aa       -- members of W inside A whose correlation index misses B
    a_group    -- members of W whose correlation index misses B and that
                  have even edge cut against everything in k_b; it holds
                  k_aa, and its states are the A-side factors
    k_simb     -- complement of k_aa inside a_group
    k_harpoon  -- complement of a_group + k_b inside W; its span labels
                  the Schmidt terms
    xdata      -- the graph's X-chain factorization
    """

    part: Bipartition
    k_b: Basis
    k_aa: Basis
    a_group: Basis
    k_simb: Basis
    k_harpoon: Basis
    xdata: XChainData


def partition_groups(g: Graph, part: Bipartition, xd: XChainData | None = None) -> PartitionGroups:
    """Split the correlation representatives into the four A|B subgroups; xd if known."""
    if part.n != g.n:
        raise ValueError("bipartition size does not match the graph")
    adj = g.adj
    if xd is None:
        xd = factorize(g)
    w = xd.free_span
    in_w = [1 << p for p in xd.gamma.pivots]
    corr_misses_b = in_w + [adj[p] for p in part.b_positions()]
    k_b = gf2.kernel(in_w + [adj[p] for p in part.a_positions()], g.n)
    k_aa = gf2.kernel(corr_misses_b + [1 << p for p in part.b_positions()], g.n)
    # k_aa lies in a_group: x inside A and A.beta inside B give x . A.beta = 0
    even_cut_k_b = [correlation_index(g, beta) for beta in k_b.rows]
    a_group = gf2.kernel(corr_misses_b + even_cut_k_b, g.n)
    k_simb = gf2.complement_basis(k_aa, a_group)
    k_harpoon = gf2.complement_basis(gf2.rref(a_group.rows + k_b.rows, g.n), w)
    return PartitionGroups(part, k_b, k_aa, a_group, k_simb, k_harpoon, xd)


class SchmidtTerm(NamedTuple):
    label: int
    sign: int
    vec_a: XBasisExpansion
    vec_b: XBasisExpansion


def _schmidt_terms(g: Graph, pg: PartitionGroups, labels: list[int]) -> list[SchmidtTerm]:
    """The Schmidt terms at the given labels, from one expansion per side.

    Each factor subgroup is expanded at label 0 and restricted to its side
    once; both checks depend only on {A v}, so they hold at every label.
    Label xi shifts each term by the restriction of A xi, and its sign is
    parity(xi + v) = parity(xi) parity(v) (-1)^(xi . A v).
    """
    x_gamma = pg.xdata.x_gamma
    sides = []
    for side, basis in ((pg.part.a, pg.a_group), (pg.part.b, pg.k_b)):
        qubits = gf2.vertices_of(side)
        positions = [v - 1 for v in qubits]
        full = correlation_state(g, pg.xdata, basis, 0)
        table = [(gf2.restrict(m, positions), s, m ^ x_gamma) for m, s in full.terms.items()]
        if len({r for r, _, _ in table}) != len(table):
            raise AssertionError("restriction collapsed distinct factor terms")
        sides.append((qubits, basis.dim, positions, table))
    out = []
    for xi in labels:
        sign, corr = stabilizer_parity(g, xi), correlation_index(g, xi)
        vecs = []
        for qubits, dim, positions, table in sides:
            shift = gf2.restrict(corr, positions)
            terms = {
                r ^ shift: -sign * s if (xi & av).bit_count() & 1 else sign * s
                for r, s, av in table
            }
            vecs.append(XBasisExpansion(qubits, dim, terms))
        out.append(SchmidtTerm(xi, sign, *vecs))
    return out


def schmidt_vectors(
    g: Graph, pg: PartitionGroups, xi: int
) -> tuple[int, XBasisExpansion, XBasisExpansion]:
    """Sign and the two separable factors of the xi-labelled Schmidt term."""
    if not gf2.contains(pg.k_harpoon, xi):
        raise ValueError("label lies outside the crossing-correlation span")
    [t] = _schmidt_terms(g, pg, [xi])
    return t.sign, t.vec_a, t.vec_b


class SchmidtDecomposition(NamedTuple):
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

    The number of crossing labels is checked against the cut rank, and the
    2^k (2^dim a_group + 2^dim k_b) factor terms are counted before any is
    built.
    """
    pg = partition_groups(g, part)
    k = schmidt_rank(g, part)
    if pg.k_harpoon.dim != k:
        raise AssertionError(
            f"rank bookkeeping mismatch: quotient {pg.k_harpoon.dim} vs cut rank {k}"
        )
    if (1 << k) * ((1 << pg.a_group.dim) + (1 << pg.k_b.dim)) > 1 << EXPANSION_LIMIT:
        raise ValueError(
            f"Schmidt decomposition with cut rank k={k} has 2^{k} * "
            f"(2^{pg.a_group.dim} + 2^{pg.k_b.dim}) factor terms; "
            f"capped at 2^{EXPANSION_LIMIT}"
        )
    terms = _schmidt_terms(g, pg, sorted(gf2.span(pg.k_harpoon.rows)))
    return SchmidtDecomposition(
        part, DyadicReal(1, pg.k_harpoon.dim), tuple(terms), global_sign(g, pg.xdata)
    )


def schmidt_rank(g: Graph, part: Bipartition) -> int:
    """Log k of the Schmidt rank 2^k, also the geometric entanglement measure.

    k is the GF(2) rank of the adjacency block A[A, B], the cut rank of
    the bipartition (Hein, Eisert & Briegel, PRA 69, 062311 (2004)).
    """
    if part.n != g.n:
        raise ValueError("bipartition size does not match the graph")
    adj, b = g.adj, part.b
    return gf2.rref([adj[p] & b for p in part.a_positions()], g.n).dim
