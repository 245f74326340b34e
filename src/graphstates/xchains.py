"""X-chain groups, factorization data, and X-basis representations.

An X-chain is a vertex set whose induced stabilizer contains only X
factors; the X-chains of a graph are exactly the GF(2) kernel of its
adjacency matrix.  Factorizing the subset group by the X-chain group
yields an exact signed expansion of the graph state over 2^|K| X-basis
strings, where K is the set of free (non-pivot) vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import gf2
from .gf2 import Basis
from .graphs import Graph
from .stab import correlation_index, stabilizer_parity

EXPANSION_LIMIT = 20  # largest dim K for which the 2^|K| expansion terms are built


@dataclass(frozen=True)
class XChainData:
    """Canonical factorization of the subset group by the X-chain group.

    gamma      -- canonical basis of the X-chain group
    exclusive  -- one vertex per generator (its pivot), owned by no other
    kappa      -- the remaining vertices; their singletons generate the
                  correlation-group representatives
    x_gamma    -- fundamental X-basis string: pivots of the negative-parity
                  generators

    The global sign is not part of the factorization; global_sign(g, xd)
    computes it.
    """

    gamma: Basis
    exclusive: tuple[int, ...]
    kappa: tuple[int, ...]
    x_gamma: int


@dataclass
class XBasisExpansion:
    """Exact signed dyadic expansion in the X-basis.

    state = 2^(-half_log_norm/2) * sum over terms of sign * |mask>,
    qubits listing the 1-indexed vertices that the mask bits address.
    """

    qubits: tuple[int, ...]
    half_log_norm: int
    terms: dict[int, int] = field(default_factory=dict)

    def __str__(self):
        m = self.half_log_norm
        if m == 0:
            coeff = ""
        elif m % 2 == 0:
            coeff = f"1/{1 << (m // 2)}"
        elif m == 1:
            coeff = "1/sqrt(2)"
        else:
            coeff = f"1/({1 << (m // 2)}*sqrt(2))"
        bits = []
        for mask, sign in sorted(self.terms.items()):
            ket = gf2.mask_to_string(mask, len(self.qubits))
            if not bits:
                bits.append(("-" if sign < 0 else "") + f"|{ket}>")
            else:
                bits.append(("- " if sign < 0 else "+ ") + f"|{ket}>")
        return f"{coeff}({' '.join(bits)})" if coeff else " ".join(bits)


def xchain_group(g: Graph) -> Basis:
    """Canonical basis of the X-chain group: the kernel of the adjacency."""
    return gf2.kernel(g.adj, g.n)


def is_xchain(g: Graph, xi: int) -> bool:
    """True iff every vertex has an even number of neighbors inside xi."""
    return correlation_index(g, xi) == 0


def factorize(g: Graph) -> XChainData:
    """Extract the canonical X-chain factorization of a graph.

    The kernel basis is in reduced echelon form, so each generator's pivot
    vertex occurs in no other generator and serves as its exclusive
    representative.  The fundamental string collects the pivots of the
    generators with an odd induced edge count.
    """
    gamma = xchain_group(g)
    exclusive = tuple(p + 1 for p in gamma.pivots)
    pivot_set = set(gamma.pivots)
    kappa = tuple(v + 1 for v in range(g.n) if v not in pivot_set)
    x_gamma = 0
    for p, row in zip(gamma.pivots, gamma.rows):
        if stabilizer_parity(g, row) == -1:
            x_gamma |= 1 << p
    return XChainData(gamma, exclusive, kappa, x_gamma)


def global_sign(g: Graph, xd: XChainData) -> int:
    """Sign of the sum of parities over the span of the free singletons.

    The sum is the exponential sum of q(x) = e(G[x]) mod 2, whose polar
    form x.Ay is nonsingular on the free singletons, so it equals
    (-1)^Arf(q) * 2^(|K|/2).  Symplectic Gram-Schmidt splits the span into
    hyperbolic pairs (e, f) with e.Af = 1, and Arf(q) is the sum of
    q(e)q(f) over the pairs.  Each working vector carries its set z, its
    correlation index Az and q(z), so q(z + u) = q(z) + q(u) + z.Au needs
    no edge recount; a singleton has q = 0.
    """
    work = [(1 << (v - 1), g.adj[v - 1], 0) for v in xd.kappa]
    arf = 0
    while work:
        e, ce, qe = work.pop()
        i = next((i for i, (_, cf, _) in enumerate(work) if gf2.dot(e, cf)), None)
        if i is None:
            raise AssertionError("cut-parity form is singular on the free singletons")
        f, cf, qf = work.pop(i)
        arf ^= qe & qf
        for j, (u, cu, qu) in enumerate(work):
            # u + (u.Af) e + (u.Ae) f is orthogonal to both e and f
            if gf2.dot(u, cf):
                u, cu, qu = u ^ e, cu ^ ce, qu ^ qe ^ gf2.dot(u, ce)
            if gf2.dot(u, ce):
                u, cu, qu = u ^ f, cu ^ cf, qu ^ qf ^ gf2.dot(u, cf)
            work[j] = (u, cu, qu)
    return -1 if arf else 1


def xchain_state(g: Graph, xd: XChainData, xi: int) -> tuple[int, int]:
    """Sign and X-basis string of the xi-labelled product-state term."""
    return stabilizer_parity(g, xi), xd.x_gamma ^ correlation_index(g, xi)


def correlation_state(g: Graph, xd: XChainData, k: Basis, xi: int) -> XBasisExpansion:
    """Uniform superposition of the product-state terms over xi + span(k)."""
    parity = stabilizer_parity(g, xi)
    corr = correlation_index(g, xi)
    terms = {xd.x_gamma ^ corr: parity}
    row_parity = [stabilizer_parity(g, r) for r in k.rows]
    row_corr = [correlation_index(g, r) for r in k.rows]
    for i, v in gf2.gray_walk(k.rows):
        # adding row r to x multiplies the parity by parity(r) * (-1)^(x.Ar);
        # x.Ar is the same before and after the step because r.Ar = 0
        parity *= row_parity[i] * (-1 if gf2.dot(xi ^ v, row_corr[i]) else 1)
        corr ^= row_corr[i]
        mask = xd.x_gamma ^ corr
        if mask in terms:
            raise ValueError(
                "term collision: the subgroup meets the X-chain group nontrivially"
            )
        terms[mask] = parity
    return XBasisExpansion(tuple(range(1, g.n + 1)), k.dim, terms)


def x_representation(g: Graph, xd: XChainData | None = None) -> XBasisExpansion:
    """Exact X-basis expansion of the graph state, global sign included.

    Builds the superposition over the span of the free-vertex singletons
    and multiplies it by the global sign, so the result equals the dense
    reference state bit for bit; its term |x_Gamma> carries the global
    sign alone.  A caller that has factorized the graph already passes xd.
    """
    if xd is None:
        xd = factorize(g)
    if len(xd.kappa) > EXPANSION_LIMIT:
        raise ValueError(
            f"expansion has 2^{len(xd.kappa)} terms; capped at 2^{EXPANSION_LIMIT}"
        )
    rows = gf2.rref([1 << (v - 1) for v in xd.kappa], g.n)
    e = correlation_state(g, xd, rows, 0)
    if global_sign(g, xd) < 0:
        e.terms = {mask: -s for mask, s in e.terms.items()}
    return e


def measurement_support(g: Graph) -> list[tuple[int, Fraction]]:
    """Nonzero full-X-measurement outcomes with their exact probabilities."""
    xd = factorize(g)
    if len(xd.kappa) > EXPANSION_LIMIT:
        raise ValueError(
            f"measurement support has 2^{len(xd.kappa)} outcomes; "
            f"capped at 2^{EXPANSION_LIMIT}"
        )
    prob = Fraction(1, 1 << len(xd.kappa))
    # x_Gamma + the span of the correlation images of the free singletons
    images = [g.adj[v - 1] for v in xd.kappa]
    return sorted((xd.x_gamma ^ c, prob) for c in gf2.iter_span(images))


def distinguishing_outcomes(g: Graph, h: Graph) -> tuple[set[int], set[int]]:
    """X-measurement outcomes possible for exactly one of the two states."""
    if g.n != h.n:
        raise ValueError("graphs have different vertex counts")
    sg = {mask for mask, _ in measurement_support(g)}
    sh = {mask for mask, _ in measurement_support(h)}
    return sg - sh, sh - sg
