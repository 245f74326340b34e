"""Exact dense statevector reference for cross-checking symbolic results.

States are integer amplitude vectors with a power-of-sqrt(2) scale:
state = amps * 2^(-scale/2).  No floating point is used anywhere; all
assertions downstream are exact equalities.
"""

from __future__ import annotations

import operator
from functools import reduce
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


def dense_state_z(g: Graph) -> DenseState:
    """Z-basis graph state: amplitude of |xi> is the stabilizer parity of xi.

    Built by doubling: with vertex v added, |m + v> for m below bit v gets
    the amplitude of |m> times (-1)^|N(v) & m|, the parity of the edges
    v brings into the induced subgraph.
    """
    _check_size(g.n)
    amps = [1]
    for nbrs in g.adj:
        amps += [-a if (nbrs & m).bit_count() & 1 else a for m, a in enumerate(amps)]
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


def dense_overlap(g: Graph, h: Graph) -> DyadicReal:
    """Exact inner product of two graph states via their Z-basis vectors."""
    return state_overlap(dense_state_z(g), dense_state_z(h))


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


def dense_schmidt_rank(g: Graph, part: Bipartition) -> int:
    """Exact rank of the graph state's amplitude matrix along the bipartition."""
    return state_schmidt_rank(dense_state_z(g), part)


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
