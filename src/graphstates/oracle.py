"""Exact dense reference for cross-checking symbolic results.

A graph state's Z amplitudes are all +-1, so the state packs into one
2^n-bit int S, bit m set iff amplitude m is -1, and each check is a
brute-force sum over it in big-int XORs and popcounts.  The oracle reads
only the adjacency rows.  `DenseState` is the unpacked form, integer
amplitudes with state = amps * 2^(-scale/2); no floating point is used.
"""

from __future__ import annotations

import operator
from functools import cache, reduce
from typing import NamedTuple

from .bias import DyadicReal
from .graphs import Bipartition, Graph

MAX_DENSE_N = 14


class DenseState(NamedTuple):
    """Exact 2^n integer amplitude vector, state = amps * 2^(-scale/2)."""

    n: int
    amps: list[int]
    scale: int

    def reduced(self) -> "DenseState":
        """Canonical form: divide out common factors of 2 against the scale.

        The common power of two is the lowest set bit of the OR of all
        amplitudes; an all-zero vector keeps only the scale's parity.
        """
        common = reduce(operator.or_, self.amps, 0)
        shift = self.scale // 2
        if common:
            shift = min(shift, (common & -common).bit_length() - 1)
        if shift <= 0:
            return DenseState(self.n, list(self.amps), self.scale)
        return DenseState(self.n, [a >> shift for a in self.amps], self.scale - 2 * shift)


def _check_size(n: int):
    if n > MAX_DENSE_N:
        raise ValueError(f"dense oracle is capped at n <= {MAX_DENSE_N}")


@cache
def _parity_tables(n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(h, lo, hi): bit x of lo[m & (2^h - 1)] ^ hi[m >> h] is the parity of m & x.

    Each half spans its tables T_u (bit x is bit u of x) by doubling; T_u is
    2^u clear bits then 2^u set bits, doubled by shifts to 2^n bits.
    """
    _check_size(n)
    h = n // 2
    lo, hi = [0], [0]
    for u in range(n):
        t, w = ((1 << (1 << u)) - 1) << (1 << u), 2 << u
        while w < 1 << n:
            t |= t << w
            w <<= 1
        half = lo if u < h else hi
        half += [p ^ t for p in half]
    return h, tuple(lo), tuple(hi)


def _packed_state(adj) -> int:
    """Sign bits S of the Z-basis graph state on these adjacency rows.

    Built by doubling: with vertex v added, |m + v> for m < 2^v gets the sign
    of |m> flipped by |N(v) & m| mod 2, bit m of the parity row of N(v) & (2^v - 1).
    """
    h, lo, hi = _parity_tables(len(adj))
    s = 0
    for v, nbrs in enumerate(adj):
        m = nbrs & ((1 << v) - 1)
        s |= ((s ^ lo[m & ((1 << h) - 1)] ^ hi[m >> h]) & ((1 << (1 << v)) - 1)) << (1 << v)
    return s


def dense_state_z(g: Graph) -> DenseState:
    """Z-basis graph state: amplitude of |xi> is the stabilizer parity of xi."""
    s = _packed_state(g.adj)
    bits = bin(s | 1 << (1 << g.n))[:2:-1]
    return DenseState(g.n, [-1 if b == "1" else 1 for b in bits], g.n)


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


def x_amplitudes(g: Graph, masks) -> dict[int, int]:
    """X-basis amplitudes of the graph state at the given masks, at scale 2n.

    Amplitude m is sum over x of (-1)^(S_x + m.x) = 2^n - 2 |S ^ L_m|, where
    bit x of L_m is the parity of m & x.  This is `dense_to_x` of the Z
    state, read at the masks only.
    """
    s = _packed_state(g.adj)
    h, lo, hi = _parity_tables(g.n)
    low, size = (1 << h) - 1, 1 << g.n
    return {m: size - 2 * (s ^ lo[m & low] ^ hi[m >> h]).bit_count() for m in masks}


def dense_overlap(g: Graph, h: Graph) -> DyadicReal:
    """Exact inner product of two graph states: (2^n - 2 |S_g ^ S_h|) / 2^n."""
    if g.n != h.n:
        raise ValueError("states have different qubit counts")
    total = (1 << g.n) - 2 * (_packed_state(g.adj) ^ _packed_state(h.adj)).bit_count()
    if total == 0:
        return DyadicReal.zero()
    mag = abs(total)
    if mag & (mag - 1):
        raise AssertionError(f"overlap numerator {total} is not a power of two")
    # |value| = mag * 2^-n, with mag = 2^(bit_length - 1)
    return DyadicReal(1 if total > 0 else -1, 2 * (g.n + 1 - mag.bit_length()))


def dense_schmidt_rank(g: Graph, part: Bipartition) -> int:
    """Exact rank of the graph state's amplitude matrix along the bipartition.

    Relabeled with the larger side C in the low bits, S is cut into rows of
    2^|C| signs, each flipped to a clear bit 0 so rows equal up to sign
    coincide.  The distinct rows must be pairwise orthogonal (differ in half
    their bits); then their count is the rank.
    """
    if part.n != g.n:
        raise ValueError("bipartition size does not match the state")
    c = part.b if part.b.bit_count() >= part.a.bit_count() else part.a
    order = [v for v in range(g.n) if c >> v & 1] + [v for v in range(g.n) if not c >> v & 1]
    adj = [sum(1 << i for i, u in enumerate(order) if g.adj[v] >> u & 1) for v in order]
    s = _packed_state(adj)
    width = 1 << c.bit_count()
    full = (1 << width) - 1
    rows = set()
    for _ in range(1 << (g.n - c.bit_count())):
        x = s & full
        rows.add(x ^ full if x & 1 else x)
        s >>= width
    rows = list(rows)
    for i, x in enumerate(rows):
        for y in rows[i + 1:]:
            if (x ^ y).bit_count() != width >> 1:
                raise AssertionError("distinct amplitude rows are not orthogonal")
    return len(rows)


def brute_xchains(g: Graph) -> set[int]:
    """All vertex sets with empty correlation index, by direct enumeration.

    The correlation indices are built by doubling: adding vertex v to a
    set below bit v adds its neighborhood.
    """
    if g.n > 20:
        raise ValueError("brute-force X-chain scan is capped at n <= 20")
    corr = [0]
    for nbrs in g.adj:
        corr += [c ^ nbrs for c in corr]
    return {mask for mask, c in enumerate(corr) if c == 0}
