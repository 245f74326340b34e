"""X-chain groups, factorization data, and X-basis representations.

An X-chain is a vertex set whose induced stabilizer contains only X
factors; the X-chains of a graph are exactly the GF(2) kernel of its
adjacency matrix.  Factorizing the subset group by the X-chain group
yields an exact signed expansion of the graph state over 2^|K| X-basis
strings, where K is the set of free (non-pivot) vertices.
"""

from __future__ import annotations

from typing import NamedTuple

from . import gf2
from .gf2 import Basis
from .graphs import Graph
from .stab import correlation_index, stabilizer_parity

EXPANSION_LIMIT = 20  # log2 of the most expansion terms built for one output


class XChainData(NamedTuple):
    """Canonical factorization of the subset group by the X-chain group.

    gamma      -- canonical basis of the X-chain group; each generator's
                  pivot is its exclusive vertex, owned by no other
    kappa      -- the remaining vertices; their singletons generate the
                  correlation-group representatives
    x_gamma    -- fundamental X-basis string: pivots of the negative-parity
                  generators

    The global sign is not part of the factorization; global_sign(g, xd)
    computes it.
    """

    gamma: Basis
    kappa: tuple[int, ...]
    x_gamma: int

    @property
    def free_span(self) -> Basis:
        """Span of the free singletons; its canonical basis is the unit vectors."""
        pivots = tuple([v - 1 for v in self.kappa])
        return Basis(self.gamma.width, tuple([1 << p for p in pivots]), pivots)


class XBasisExpansion(NamedTuple):
    """Exact signed dyadic expansion in the X-basis.

    state = 2^(-half_log_norm/2) * sum over terms of sign * |mask>,
    qubits listing the 1-indexed vertices that the mask bits address.
    """

    qubits: tuple[int, ...]
    half_log_norm: int
    terms: dict[int, int]

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


def factorize(g: Graph) -> XChainData:
    """Extract the canonical X-chain factorization of a graph.

    The kernel basis is in reduced echelon form, so each generator's pivot
    vertex occurs in no other generator and serves as its exclusive
    representative.  The fundamental string collects the pivots of the
    generators with an odd induced edge count.
    """
    gamma = xchain_group(g)
    pivot_set = set(gamma.pivots)
    # a list, since tuple(generator) resizes its tuple, which then piles up in CPython's free lists
    kappa = tuple([v + 1 for v in range(g.n) if v not in pivot_set])
    x_gamma = 0
    for p, row in zip(gamma.pivots, gamma.rows):
        if stabilizer_parity(g, row) == -1:
            x_gamma |= 1 << p
    return XChainData(gamma, kappa, x_gamma)


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
    adj = g.adj
    work = [(1 << (v - 1), adj[v - 1], 0) for v in xd.kappa]
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


def correlation_state(g: Graph, xd: XChainData, k: Basis, xi: int) -> XBasisExpansion:
    """Uniform superposition of the product-state terms over xi + span(k).

    The only builder of expansion terms, so it refuses more than
    2^EXPANSION_LIMIT of them before building any.
    """
    if k.dim > EXPANSION_LIMIT:
        raise ValueError(f"expansion has 2^{k.dim} terms; capped at 2^{EXPANSION_LIMIT}")
    x_gamma = xd.x_gamma
    masks = [x_gamma ^ correlation_index(g, xi)]
    signs = [stabilizer_parity(g, xi)]
    for r in k.rows:
        # adding r to x multiplies the parity by parity(r) * (-1)^(x.Ar), and
        # x.Ar = r.Ax = r.(m + x_Gamma) for the term mask m, as A is symmetric
        pr = stabilizer_parity(g, r) * (-1 if gf2.dot(x_gamma, r) else 1)
        signs += [-s * pr if (m & r).bit_count() & 1 else s * pr for m, s in zip(masks, signs)]
        cr = correlation_index(g, r)
        masks += [m ^ cr for m in masks]
    terms = dict(zip(masks, signs))
    if len(terms) < len(signs):
        raise ValueError("term collision: the subgroup meets the X-chain group nontrivially")
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
    e = correlation_state(g, xd, xd.free_span, 0)
    if global_sign(g, xd) < 0:
        e = e._replace(terms={mask: -s for mask, s in e.terms.items()})
    return e
