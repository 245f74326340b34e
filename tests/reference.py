"""Reference helpers that only the tests use.

Slow or roundabout on purpose: each one checks a library result by a
different route (dense Pauli action, brute-force relabeling, a 2^|K|
sign sum, Schmidt factors built label by label, the graph's stabilizers
applied term by term, a column-scan GF(2) elimination, a Gray-code walk
of a span, X-measurement supports enumerated with their `Fraction`
probabilities) or builds test input (bit strings, edge-list text).
It also holds the stabilizer algebra the library does not need: Pauli
stabilizers in X-then-Z normal form, their generators and products, the
cut-parity bilinear form, and the dense Born distribution of full
X-measurements.  Last, the list oracle that the packed one replaced:
overlaps as sums of amplitude products and Schmidt ranks by Bareiss
elimination of the reshaped amplitude matrix.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import permutations
from typing import Iterator, NamedTuple

from graphstates import gf2
from graphstates.bias import DyadicReal, bias_degree
from graphstates.gf2 import MAX_WIDTH, Basis
from graphstates.graphs import Bipartition, Graph
from graphstates.schmidt import PartitionGroups
from graphstates.oracle import DenseState, _check_size, dense_state_z, dense_to_x
from graphstates.stab import correlation_index, stabilizer_parity
from graphstates.xchains import (
    EXPANSION_LIMIT,
    XBasisExpansion,
    XChainData,
    correlation_state,
    factorize,
)


def column_scan_rref(rows, width: int) -> Basis:
    """Reduced row echelon form over GF(2), lowest-index pivots first.

    The reference for gf2.rref: scans the columns in order, swaps a row
    holding the column up and clears the column from every other row.
    """
    if width < 0 or width > MAX_WIDTH:
        raise ValueError(f"width {width} out of range 0..{MAX_WIDTH}")
    work = list(rows)
    pivots = []
    r = 0
    for col in range(width):
        piv = None
        for i in range(r, len(work)):
            if (work[i] >> col) & 1:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and (work[i] >> col) & 1:
                work[i] ^= work[r]
        pivots.append(col)
        r += 1
    return Basis(width, tuple(work[:r]), tuple(pivots))


def two_pass_kernel(rows, width: int) -> Basis:
    """Canonical kernel basis: one vector per free column, then a second rref.

    The reference for gf2.kernel.
    """
    echelon = column_scan_rref(rows, width)
    pivot_set = set(echelon.pivots)
    free = [c for c in range(width) if c not in pivot_set]
    vecs = []
    for f in free:
        v = 1 << f
        for p, row in zip(echelon.pivots, echelon.rows):
            if (row >> f) & 1:
                v |= 1 << p
        vecs.append(v)
    return column_scan_rref(vecs, width)


class PauliStabilizer(NamedTuple):
    """phase * sigma_X^(x_set) * sigma_Z^(z_set) on `width` qubits."""

    width: int
    phase: int
    x_set: int
    z_set: int


def generator(g: Graph, v: int) -> PauliStabilizer:
    """Stabilizer generator of vertex v: X on v, Z on its neighborhood."""
    if not 1 <= v <= g.n:
        raise ValueError(f"vertex {v} out of range")
    return PauliStabilizer(g.n, 1, 1 << (v - 1), g.adj[v - 1])


def induced_stabilizer(g: Graph, xi: int) -> PauliStabilizer:
    """Product of the generators over xi, in X-then-Z normal form."""
    return PauliStabilizer(g.n, stabilizer_parity(g, xi), xi, correlation_index(g, xi))


def cut_parity(g: Graph, a: int, b: int) -> int:
    """Parity of the number of edges between vertex sets a and b.

    Defined as the GF(2) bilinear form a^T A b; for overlapping sets this
    is the unique extension consistent with parity multiplication.
    """
    return gf2.dot(a, correlation_index(g, b))


def born_distribution(s: DenseState) -> dict[int, Fraction]:
    """Exact Born distribution of a dense state, nonzero outcomes only."""
    denom = 1 << s.scale
    prob = {a * a: Fraction(a * a, denom) for a in set(s.amps) if a}
    return {mask: prob[a * a] for mask, a in enumerate(s.amps) if a}


def x_distribution(g: Graph) -> dict[int, Fraction]:
    """Exact Born distribution of full X-measurements, nonzero outcomes only."""
    return born_distribution(dense_to_x(dense_state_z(g)))


def string_to_mask(bits: str) -> int:
    m = 0
    for j, ch in enumerate(bits):
        if ch == "1":
            m |= 1 << j
        elif ch != "0":
            raise ValueError(f"invalid bit character {ch!r}")
    return m


def scatter(mask: int, positions: list[int]) -> int:
    """Inverse of restrict: place bit k of mask at position positions[k]."""
    out = 0
    for k, p in enumerate(positions):
        if (mask >> k) & 1:
            out |= 1 << p
    return out


def emit_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def apply_permutation(g: Graph, perm: tuple[int, ...]) -> Graph:
    """Relabel vertices: perm[v-1] is the new label of old vertex v."""
    adj = [0] * g.n
    for v in range(1, g.n + 1):
        row = 0
        for u in gf2.vertices_of(g.adj[v - 1]):
            row |= 1 << (perm[u - 1] - 1)
        adj[perm[v - 1] - 1] = row
    return Graph(g.n, tuple(adj))


def brute_canonical_form(g: Graph) -> Graph:
    """The relabeling of g with the least adjacency tuple, over all n! permutations."""
    relabelings = (apply_permutation(g, p) for p in permutations(range(1, g.n + 1)))
    return min(relabelings, key=lambda h: h.adj)


def multiply(g: Graph, s1: PauliStabilizer, s2: PauliStabilizer) -> PauliStabilizer:
    """Operator product of two stabilizers, renormalized to X-then-Z form.

    Moving Z^(z1) across X^(x2) contributes (-1) per shared vertex.
    """
    if s1.width != s2.width:
        raise ValueError("width mismatch")
    sign = -1 if gf2.dot(s1.z_set, s2.x_set) else 1
    return PauliStabilizer(
        s1.width,
        s1.phase * s2.phase * sign,
        s1.x_set ^ s2.x_set,
        s1.z_set ^ s2.z_set,
    )


def negative_weight(g: Graph) -> int:
    """Number of negative Z-basis amplitudes: 2^(n-1) * (1 - bias)."""
    beta = bias_degree(g)
    if beta.sign == 0:
        return 1 << (g.n - 1)
    if beta.half_log % 2 != 0:
        raise AssertionError("bias exponent must be even for a graph state")
    shift = g.n - 1 - beta.half_log // 2
    if shift < 0:
        raise AssertionError("bias magnitude exceeds the amplitude budget")
    return (1 << (g.n - 1)) - beta.sign * (1 << shift)


def norm_squared_is_unit(s: DenseState) -> bool:
    return sum(a * a for a in s.amps) == 1 << s.scale


def apply_pauli(s: DenseState, p: PauliStabilizer) -> DenseState:
    """Apply phase * X^(x) * Z^(z) to a Z-basis dense state."""
    if p.width != s.n:
        raise ValueError("width mismatch")
    out = [0] * len(s.amps)
    for i, a in enumerate(s.amps):
        src = i ^ p.x_set
        sign = -1 if (p.z_set & src).bit_count() & 1 else 1
        out[i] = p.phase * sign * s.amps[src]
    return DenseState(s.n, out, s.scale)


def check_stabilizer(s: DenseState, p: PauliStabilizer) -> bool:
    """True iff applying p reproduces the state exactly."""
    return apply_pauli(s, p).amps == s.amps


def parity_sum_sign(g: Graph, rows: list[int]) -> int:
    """Sign (-1, 0 or +1) of the sum of stabilizer parities over span(rows).

    The reference for the global sign: walks all 2^len(rows) members in
    Gray order, updating the parity with the cut-parity product rule
    instead of recounting edges.
    """
    if g.n > 20:
        raise ValueError("reference sign sum is capped at n <= 20")
    row_parity = [stabilizer_parity(g, r) for r in rows]
    row_corr = [correlation_index(g, r) for r in rows]
    cur = 0
    parity = 1
    total = 1
    for t in range(1, 1 << len(rows)):
        i = (t & -t).bit_length() - 1
        flip = gf2.dot(cur, row_corr[i])
        parity *= row_parity[i] * (-1 if flip else 1)
        cur ^= rows[i]
        total += parity
    return (total > 0) - (total < 0)


def dense_from_expansion(e: XBasisExpansion) -> DenseState:
    """Z-basis dense state of an X-basis expansion on qubits 1..n."""
    n = len(e.qubits)
    if tuple(e.qubits) != tuple(range(1, n + 1)):
        raise ValueError("expansion must cover qubits 1..n in order")
    _check_size(n)
    amps = [0] * (1 << n)
    for mask, sign in e.terms.items():
        amps[mask] = sign
    return dense_to_x(DenseState(n, amps, e.half_log_norm)).reduced()


def per_label_schmidt_vectors(
    g: Graph, pg: PartitionGroups, xi: int
) -> tuple[int, XBasisExpansion, XBasisExpansion]:
    """Sign and both factors of the xi-labelled Schmidt term, built at xi.

    Expands both factor subgroups at the label itself and restricts every
    term bit by bit, instead of translating one label-0 expansion.
    """
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


def is_stabilized(g: Graph, e: XBasisExpansion) -> bool:
    """True iff every generator K_v of g fixes the expansion, with no dense vector.

    K_v = X_v Z_N(v) maps the X-basis term |m> to (-1)^(m_v) |m + N(v)>, so
    the expansion is fixed iff terms[m ^ adj[v]] = (-1)^(m_v) terms[m] for
    every term m and vertex v.  The term count must also be the
    2^half_log_norm of a normalized state.  The global sign is invisible.
    """
    if tuple(e.qubits) != tuple(range(1, g.n + 1)) or len(e.terms) != 1 << e.half_log_norm:
        return False
    return all(
        e.terms.get(m ^ g.adj[v]) == (-s if (m >> v) & 1 else s)
        for m, s in e.terms.items()
        for v in range(g.n)
    )


def gray_walk(rows: list[int]) -> Iterator[tuple[int, int]]:
    """Walk span(rows) in Gray order, one row per step, from the zero vector.

    Yields (i, v) after row i has been XORed into the running vector v, so
    the 2^len(rows) - 1 steps visit every nonzero combination once when the
    rows are independent.  The starting zero vector is not yielded.
    """
    cur = 0
    for t in range(1, 1 << len(rows)):
        i = (t & -t).bit_length() - 1
        cur ^= rows[i]
        yield i, cur


def gray_correlation_state(g: Graph, xd: XChainData, k: Basis, xi: int) -> XBasisExpansion:
    """Uniform superposition of the product-state terms over xi + span(k).

    The reference for xchains.correlation_state: walks span(k) in Gray
    order, one row per step, and carries the parity along the walk.
    """
    if k.dim > EXPANSION_LIMIT:
        raise ValueError(f"expansion has 2^{k.dim} terms; capped at 2^{EXPANSION_LIMIT}")
    x_gamma = xd.x_gamma
    parity = stabilizer_parity(g, xi)
    corr = correlation_index(g, xi)
    terms = {x_gamma ^ corr: parity}
    row_parity = [stabilizer_parity(g, r) for r in k.rows]
    row_corr = [correlation_index(g, r) for r in k.rows]
    for i, v in gray_walk(k.rows):
        # adding row r to x multiplies the parity by parity(r) * (-1)^(x.Ar);
        # x.Ar is the same before and after the step because r.Ar = 0
        parity *= row_parity[i] * (-1 if gf2.dot(xi ^ v, row_corr[i]) else 1)
        corr ^= row_corr[i]
        mask = x_gamma ^ corr
        if mask in terms:
            raise ValueError(
                "term collision: the subgroup meets the X-chain group nontrivially"
            )
        terms[mask] = parity
    return XBasisExpansion(tuple(range(1, g.n + 1)), k.dim, terms)


def measurement_support(g: Graph, xd: XChainData | None = None) -> list[tuple[int, Fraction]]:
    """Nonzero full-X-measurement outcomes with their exact probabilities; xd if known."""
    if xd is None:
        xd = factorize(g)
    if len(xd.kappa) > EXPANSION_LIMIT:
        raise ValueError(
            f"measurement support has 2^{len(xd.kappa)} outcomes; "
            f"capped at 2^{EXPANSION_LIMIT}"
        )
    prob = Fraction(1, 1 << len(xd.kappa))
    # x_Gamma + the span of the correlation images of the free singletons
    adj, x_gamma = g.adj, xd.x_gamma
    images = [adj[v - 1] for v in xd.kappa]
    return sorted((x_gamma ^ c, prob) for c in gf2.span(images))


def distinguishing_outcomes(g: Graph, h: Graph) -> tuple[set[int], set[int]]:
    """X-measurement outcomes possible for exactly one of the two states."""
    if g.n != h.n:
        raise ValueError("graphs have different vertex counts")
    sg = {mask for mask, _ in measurement_support(g)}
    sh = {mask for mask, _ in measurement_support(h)}
    return sg - sh, sh - sg


def state_overlap(s: DenseState, t: DenseState) -> DyadicReal:
    """Exact inner product of two real dense states of power-of-two norm."""
    if s.n != t.n:
        raise ValueError("states have different qubit counts")
    total = sum(map(operator.mul, s.amps, t.amps))
    if total == 0:
        return DyadicReal.zero()
    sign = 1 if total > 0 else -1
    mag = abs(total)
    if mag & (mag - 1):
        raise AssertionError(f"overlap numerator {total} is not a power of two")
    # value = sign * 2^j * 2^(-(s.scale + t.scale)/2)
    j = mag.bit_length() - 1
    return DyadicReal(sign, s.scale + t.scale - 2 * j)


def _bareiss_rank(mat: list[list[int]]) -> int:
    """Exact integer matrix rank by Bareiss elimination, whose divisions are exact."""
    if not mat:
        return 0
    mat = [row[:] for row in mat]
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                mat[i][j] = (mat[i][j] * mat[r][c] - mat[i][c] * mat[r][j]) // prev
            mat[i][c] = 0
        prev = mat[r][c]
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def _index_table(positions: list[int]) -> list[int]:
    """Full index of each local index: entry k carries bit i of k at positions[i]."""
    table = [0]
    for p in positions:
        table += [t | 1 << p for t in table]
    return table


def _distinct_up_to_sign(rows) -> list[tuple[int, ...]]:
    """The rows, with each row equal to an earlier one up to sign dropped.

    A dropped row is a multiple of a kept one, so the rank is unchanged.
    """
    kept = {}
    for row in rows:
        lead = next(filter(None, row), 0)
        kept[tuple(row) if lead >= 0 else tuple(map(operator.neg, row))] = None
    return list(kept)


def state_schmidt_rank(s: DenseState, part: Bipartition) -> int:
    """Exact rank of the amplitude matrix reshaped along the bipartition."""
    if part.n != s.n:
        raise ValueError("bipartition size does not match the state")
    amps = s.amps
    cols = _index_table(part.b_positions())
    rows = _distinct_up_to_sign(
        [amps[r | c] for c in cols] for r in _index_table(part.a_positions())
    )
    return _bareiss_rank([list(col) for col in _distinct_up_to_sign(zip(*rows))])
