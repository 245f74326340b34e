"""Exact dense statevector reference for cross-checking symbolic results.

States are integer amplitude vectors with a power-of-sqrt(2) scale:
state = amps * 2^(-scale/2).  No floating point is used anywhere; all
assertions downstream are exact equalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import gf2
from .bias import DyadicReal
from .graphs import Bipartition, Graph
from .stab import PauliStabilizer, correlation_index, stabilizer_parity
from .xchains import XBasisExpansion

MAX_DENSE_N = 14


@dataclass
class DenseState:
    """Exact 2^n integer amplitude vector, state = amps * 2^(-scale/2)."""

    n: int
    amps: list[int]
    scale: int

    def norm_squared_is_unit(self) -> bool:
        return sum(a * a for a in self.amps) == 1 << self.scale

    def reduced(self) -> "DenseState":
        """Canonical form: divide out common factors of 2 against the scale."""
        amps = list(self.amps)
        scale = self.scale
        while scale >= 2 and all(a % 2 == 0 for a in amps):
            amps = [a // 2 for a in amps]
            scale -= 2
        return DenseState(self.n, amps, scale)


def _check_size(n: int):
    if n > MAX_DENSE_N:
        raise ValueError(f"dense oracle is capped at n <= {MAX_DENSE_N}")


def dense_state_z(g: Graph) -> DenseState:
    """Z-basis graph state: amplitude of |xi> is the stabilizer parity of xi."""
    _check_size(g.n)
    amps = [stabilizer_parity(g, mask) for mask in range(1 << g.n)]
    return DenseState(g.n, amps, g.n)


def dense_to_x(s: DenseState) -> DenseState:
    """Full n-fold Hadamard transform, exactly in integers (scale grows by n)."""
    amps = list(s.amps)
    size = len(amps)
    h = 1
    while h < size:
        for i in range(0, size, 2 * h):
            for j in range(i, i + h):
                x, y = amps[j], amps[j + h]
                amps[j], amps[j + h] = x + y, x - y
        h *= 2
    return DenseState(s.n, amps, s.scale + s.n)


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


def dense_overlap(g: Graph, h: Graph) -> DyadicReal:
    """Exact inner product of two graph states via their Z-basis vectors."""
    if g.n != h.n:
        raise ValueError("graphs have different vertex counts")
    _check_size(g.n)
    total = sum(
        stabilizer_parity(g, mask) * stabilizer_parity(h, mask)
        for mask in range(1 << g.n)
    )
    if total == 0:
        return DyadicReal.zero()
    sign = 1 if total > 0 else -1
    mag = abs(total)
    if mag & (mag - 1):
        raise AssertionError(f"overlap numerator {total} is not a power of two")
    # value = sign * 2^j / 2^n = sign * 2^(-(n-j)) = sign * 2^(-m/2)
    j = mag.bit_length() - 1
    return DyadicReal(sign, 2 * (g.n - j))


def _bareiss_rank(mat: list[list[int]]) -> int:
    """Exact integer matrix rank by fraction-free Gaussian elimination."""
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


def dense_schmidt_rank(g: Graph, part: Bipartition) -> int:
    """Exact rank of the amplitude matrix reshaped along the bipartition."""
    _check_size(g.n)
    s = dense_state_z(g)
    pos_a = part.a_positions()
    pos_b = part.b_positions()
    rows = 1 << len(pos_a)
    cols = 1 << len(pos_b)
    mat = [
        [s.amps[gf2.scatter(ia, pos_a) | gf2.scatter(ib, pos_b)] for ib in range(cols)]
        for ia in range(rows)
    ]
    return _bareiss_rank(mat)


def brute_xchains(g: Graph) -> set[int]:
    """All vertex sets with empty correlation index, by direct enumeration."""
    if g.n > 20:
        raise ValueError("brute-force X-chain scan is capped at n <= 20")
    return {mask for mask in range(1 << g.n) if correlation_index(g, mask) == 0}


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


def x_distribution(g: Graph) -> dict[int, Fraction]:
    """Exact Born distribution of full X-measurements, nonzero outcomes only."""
    sx = dense_to_x(dense_state_z(g))
    denom = 1 << sx.scale
    return {
        mask: Fraction(a * a, denom)
        for mask, a in enumerate(sx.amps)
        if a != 0
    }


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
