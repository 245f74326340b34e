"""Exact GF(2) linear algebra on int-bitmask rows.

Vertex subsets are stored as Python ints: bit j-1 corresponds to vertex j,
so the printable string i_1...i_n reads the mask from bit 0 upward.  All
routines are pure and exact; widths are capped at 32 bits.  rref and kernel
each run one elimination, and raise ValueError for a width outside
0..MAX_WIDTH or a row with a bit at or above the width.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

MAX_WIDTH = 32


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a set of 1-indexed vertices."""
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-indexed vertices of a bitmask."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def mask_to_string(mask: int, width: int) -> str:
    """Binary string i_1...i_n (vertex 1 first)."""
    return bin(mask | 1 << width)[:2:-1]


def dot(a: int, b: int) -> int:
    """GF(2) inner product of two bitmask vectors."""
    return (a & b).bit_count() & 1


def restrict(mask: int, positions: list[int]) -> int:
    """Gather the bits of mask at the given 0-indexed positions.

    Bit k of the result is bit positions[k] of the input, so the relative
    order of the positions is preserved.
    """
    out = 0
    for k, p in enumerate(positions):
        if (mask >> p) & 1:
            out |= 1 << k
    return out


class Basis(NamedTuple):
    """Canonical reduced row-echelon basis of a GF(2) subspace.

    Rows are sorted by pivot; each pivot bit (the lowest set bit of its
    row) occurs in no other row.  Two Basis values spanning the same
    subspace compare equal.
    """

    width: int
    rows: tuple[int, ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)


def _eliminate(rows: Iterable[int], width: int, high: bool) -> dict[int, int]:
    """Fully reduced rows spanning span(rows), keyed by their pivot bit.

    The pivot is a row's highest set bit if `high`, else its lowest.  Rows
    are reduced until zero or a new pivot, then back-substituted once: a
    row holds bits on one side of its pivot only, so walking the pivots in
    from that side XORs into each row only rows that are already finished.
    """
    if width < 0 or width > MAX_WIDTH:
        raise ValueError(f"width {width} out of range 0..{MAX_WIDTH}")
    piv: dict[int, int] = {}
    for r in rows:
        if r >> width:
            raise ValueError(f"row {r} has a bit outside width {width}")
        while r:
            k = 1 << (r.bit_length() - 1) if high else r & -r
            if k not in piv:
                piv[k] = r
                break
            r ^= piv[k]
    done = 0
    for k in sorted(piv, reverse=not high):
        r = piv[k]
        m = r & done
        while m:
            b = m & -m
            r ^= piv[b]
            m ^= b
        piv[k] = r
        done |= k
    return piv


def rref(rows: Iterable[int], width: int) -> Basis:
    """Reduced row echelon form over GF(2), lowest-index pivots first."""
    piv = _eliminate(rows, width, False)
    keys = sorted(piv)
    return Basis(width, tuple([piv[k] for k in keys]), tuple([k.bit_length() - 1 for k in keys]))


def kernel(rows: Iterable[int], width: int) -> Basis:
    """Canonical basis of {x : row . x = 0 over GF(2) for every row}.

    One elimination on highest bits: the vector of free column f is f plus
    the pivots whose rows hold f, all above f, so the vectors are already
    the canonical basis.
    """
    piv = _eliminate(rows, width, True)
    free = ((1 << width) - 1) ^ sum(piv)
    vecs = {1 << f: 1 << f for f in range(width) if free >> f & 1}
    for k, r in piv.items():
        m = r & free
        while m:
            b = m & -m
            vecs[b] |= k
            m ^= b
    return Basis(width, tuple(vecs.values()), tuple([b.bit_length() - 1 for b in vecs]))


def contains(basis: Basis, vec: int) -> bool:
    """Membership of vec in span(basis) by elimination against its rows."""
    for p, row in zip(basis.pivots, basis.rows):
        if (vec >> p) & 1:
            vec ^= row
    return vec == 0


def complement_basis(sub: Basis, sup: Basis) -> Basis:
    """Direct-sum complement of span(sub) inside span(sup).

    Rows are drawn verbatim from sup's rows, scanned in pivot order, so
    the result is deterministic and itself a valid canonical basis.
    """
    if sub.width != sup.width:
        raise ValueError("width mismatch")
    for row in sub.rows:
        if not contains(sup, row):
            raise ValueError("sub is not contained in sup")
    elim = dict(zip(sub.pivots, sub.rows))  # lowest bit -> vector
    taken = []
    for row in sup.rows:
        v = row
        while v and (low := (v & -v).bit_length() - 1) in elim:
            v ^= elim[low]
        if v:
            elim[low] = v
            taken.append(row)
    # a list, since tuple(generator) resizes its tuple, which then piles up in CPython's free lists
    return Basis(sup.width, tuple(taken), tuple([(r & -r).bit_length() - 1 for r in taken]))


def span(rows: Iterable[int]) -> list[int]:
    """All XOR combinations of the rows, built by doubling from [0].

    Entry j is the XOR of the rows at the set bits of j, so the spans of
    two equally long row lists line up entry by entry.  Dependent rows
    repeat entries.
    """
    out = [0]
    for r in rows:
        out += [v ^ r for v in out]
    return out
