"""GF(2) linear algebra: frozen examples plus randomized invariants."""

import random

import pytest

from reference import column_scan_rref, gray_walk, scatter, string_to_mask, two_pass_kernel
from graphstates import gf2
from graphstates.gf2 import (
    MAX_WIDTH,
    complement_basis,
    contains,
    kernel,
    rref,
    span,
)


def masks(*bits):
    return [string_to_mask(b) for b in bits]


def test_rref_example():
    b = rref(masks("0110", "0101"), 4)
    assert b.rows == tuple(masks("0101", "0011"))
    assert b.dim == 2
    assert b.pivots == (1, 2)


def test_rref_zero_rows():
    b = rref(masks("000"), 3)
    assert b.rows == ()
    assert b.dim == 0


def test_rref_duplicate_rows():
    b = rref(masks("100", "100"), 3)
    assert b.rows == tuple(masks("100"))
    assert b.dim == 1


def test_kernel_star3_adjacency():
    # neighborhood rows of the 3-vertex star with center 1
    b = kernel(masks("011", "100", "100"), 3)
    assert b.rows == tuple(masks("011"))


def test_kernel_identity_and_zero():
    assert kernel(masks("100", "010", "001"), 3).dim == 0
    assert kernel(masks("000", "000", "000"), 3).rows == tuple(masks("100", "010", "001"))


def test_contains_examples():
    b = rref(masks("011"), 3)
    assert contains(b, string_to_mask("011"))
    assert not contains(b, string_to_mask("010"))
    b2 = rref(masks("0101", "0011"), 4)
    assert contains(b2, string_to_mask("0110"))


def test_complement_trivial_cases():
    empty = rref([], 3)
    full = rref(masks("100", "010", "001"), 3)
    assert complement_basis(empty, full).rows == full.rows
    assert complement_basis(full, full).rows == ()


def test_complement_line_in_full_3space():
    sub = rref(masks("011"), 3)
    full = rref(masks("100", "010", "001"), 3)
    comp = complement_basis(sub, full)
    assert comp.dim == 2
    # span(sub) + span(comp) covers all 8 subsets, one per (s, c) pair
    seen = set()
    for s in span(sub.rows):
        for c in span(comp.rows):
            seen.add(s ^ c)
    assert seen == set(range(8))


def test_complement_rejects_non_subspace():
    sub = rref(masks("110"), 3)
    sup = rref(masks("001"), 3)
    with pytest.raises(ValueError):
        complement_basis(sub, sup)


def random_rows(rng, width):
    """Up to 40 rows of the given width: random, sparse, zero or repeated."""
    rows = []
    for _ in range(rng.randrange(41)):
        kind = rng.randrange(10) if width else 0
        if kind == 0:
            rows.append(0)
        elif kind == 1 and rows:
            rows.append(rng.choice(rows))
        elif kind < 5:
            rows.append(1 << rng.randrange(width) | 1 << rng.randrange(width))
        else:
            rows.append(rng.getrandbits(width))
    return rows


def test_elimination_matches_column_scan_reference():
    # 20,000 inputs, alternately through rref and kernel
    rng = random.Random(20)
    pairs = [(rref, column_scan_rref), (kernel, two_pass_kernel)]
    crowded = top_bit = 0
    for i in range(20000):
        w = rng.randrange(33)
        rows = random_rows(rng, w)
        crowded += len(rows) > w
        top_bit += any(r >> 31 for r in rows)
        fn, ref = pairs[i & 1]
        assert fn(rows, w) == ref(rows, w)
    assert crowded > 5000 and top_bit > 200


def test_elimination_matches_reference_on_drawn_rows():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    inputs = st.integers(0, 32).flatmap(
        lambda w: st.tuples(st.lists(st.integers(0, (1 << w) - 1), max_size=40), st.just(w))
    )

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(inputs)
    def check(case):
        rows, w = case
        assert rref(rows, w) == column_scan_rref(rows, w)
        assert kernel(rows, w) == two_pass_kernel(rows, w)

    check()


@pytest.mark.parametrize("fn", [rref, kernel])
def test_elimination_rejects_bad_width_and_wide_rows(fn):
    for width in (-1, 33):
        with pytest.raises(ValueError, match="out of range"):
            fn([], width)
    with pytest.raises(ValueError, match="outside width 2"):
        fn([0b01, 0b101], 2)
    with pytest.raises(ValueError, match="outside width 0"):
        fn([1], 0)
    with pytest.raises(ValueError, match="outside width 32"):
        fn([1 << 32], 32)


def test_kernel_and_rank_invariants():
    rng = random.Random(7)
    for _ in range(1000):
        w = rng.randrange(1, 17)
        rows = [rng.getrandbits(w) for _ in range(rng.randrange(17))]
        r = rref(rows, w).dim
        k = kernel(rows, w)
        assert r + k.dim == w
        for v in k.rows:
            assert all(gf2.dot(row, v) == 0 for row in rows)


def test_rref_canonical_under_shuffles():
    rng = random.Random(3)
    for _ in range(300):
        w = rng.randrange(1, 13)
        rows = [rng.getrandbits(w) for _ in range(rng.randrange(1, 8))]
        base = rref(rows, w)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rref(shuffled, w) == base


def test_complement_unique_decomposition_exhaustive():
    rng = random.Random(5)
    for _ in range(100):
        w = rng.randrange(1, 7)
        sup = rref([rng.getrandbits(w) for _ in range(w)], w)
        sub_rows = [r for r in sup.rows if rng.getrandbits(1)]
        sub = rref(sub_rows, w)
        comp = complement_basis(sub, sup)
        decomp = {}
        for s in span(sub.rows):
            for c in span(comp.rows):
                v = s ^ c
                assert v not in decomp, "decomposition is not unique"
                decomp[v] = (s, c)
        assert set(decomp) == set(span(sup.rows))


def test_basis_is_canonical_value():
    # same span, different generating sets, identical Basis values
    a = rref(masks("0110", "0101"), 4)
    b = rref(masks("0011", "0110", "0101"), 4)
    assert a == b


def test_restrict_scatter_roundtrip():
    rng = random.Random(13)
    for _ in range(200):
        w = rng.randrange(1, 12)
        positions = sorted(rng.sample(range(w), rng.randrange(1, w + 1)))
        sub = rng.getrandbits(len(positions))
        assert gf2.restrict(scatter(sub, positions), positions) == sub


def test_mask_to_string_matches_bitwise_definition():
    for width in range(13):
        for mask in range(1 << width):
            expect = "".join("1" if (mask >> j) & 1 else "0" for j in range(width))
            assert gf2.mask_to_string(mask, width) == expect


def xor_at_bits(rows, j):
    out = 0
    for i, r in enumerate(rows):
        if (j >> i) & 1:
            out ^= r
    return out


def test_span_entry_j_xors_the_rows_at_the_bits_of_j():
    rng = random.Random(26)
    for _ in range(300):
        width = rng.randrange(MAX_WIDTH + 1)
        rows = [rng.getrandbits(width) for _ in range(rng.randrange(7))]
        if rows and rng.random() < 0.5:
            # a dependent row: the XOR of a random subset of the others
            dependent = xor_at_bits(rows, rng.getrandbits(len(rows)))
            rows.insert(rng.randrange(len(rows) + 1), dependent)
        out = span(rows)
        assert out == [xor_at_bits(rows, j) for j in range(1 << len(rows))]
        assert set(out) == {0} | {v for _, v in gray_walk(rows)}


def test_mask_string_roundtrip():
    assert gf2.mask_to_string(string_to_mask("0110"), 4) == "0110"
    assert gf2.mask_of([2, 3]) == string_to_mask("0110")
    assert gf2.vertices_of(string_to_mask("1010")) == (1, 3)
    with pytest.raises(ValueError):
        string_to_mask("01x0")
