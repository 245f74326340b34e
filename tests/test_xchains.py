"""X-chain extraction, factorization, and X-basis representations."""

import random
from fractions import Fraction

import pytest

from helpers import all_graphs, gnp_graph, random_graph
from graphstates import gf2
from graphstates.gf2 import iter_span, mask_of, rref, string_to_mask
from graphstates.graphs import from_edges, named
from graphstates.oracle import (
    brute_xchains,
    check_stabilizer,
    dense_from_expansion,
    dense_state_z,
    dense_to_x,
    parity_sum_sign,
    x_distribution,
)
from graphstates.stab import induced_stabilizer, stabilizer_parity
from graphstates.xchains import (
    XChainData,
    correlation_state,
    distinguishing_outcomes,
    factorize,
    global_sign,
    is_xchain,
    measurement_support,
    x_representation,
    xchain_group,
    xchain_state,
)


def span_set(basis):
    return set(iter_span(basis.rows))


def expect_terms(entries):
    """{bits: sign} fixture to a terms dict."""
    return {string_to_mask(b): s for b, s in entries.items()}


def test_xchain_group_table_fixtures():
    assert span_set(xchain_group(named("star:3"))) == {0, mask_of([2, 3])}
    assert xchain_group(named("cycle:3")).rows == (mask_of([1, 2, 3]),)
    s4 = xchain_group(named("star:4"))
    assert span_set(s4) == span_set(rref([mask_of([2, 3]), mask_of([2, 4])], 4))


def test_is_xchain_examples():
    assert is_xchain(named("star:3"), mask_of([2, 3]))
    assert is_xchain(named("star:3"), 0)
    assert not is_xchain(named("star:3"), mask_of([2]))


def test_factorize_k4minus1():
    g = named("k4minus1")
    xd = factorize(g)
    assert span_set(xd.gamma) == span_set(rref([mask_of([1, 2, 3]), mask_of([2, 4])], 4))
    assert xd.x_gamma == string_to_mask("1000")
    assert global_sign(g, xd) == 1
    # canonical generators carry the (-1, +1) parity split of the data table
    assert tuple(stabilizer_parity(g, row) for row in xd.gamma.rows) == (-1, 1)


def test_factorize_empty3():
    g = named("empty:3")
    xd = factorize(g)
    assert span_set(xd.gamma) == set(range(8))
    assert xd.exclusive == (1, 2, 3)
    assert xd.kappa == ()
    assert xd.x_gamma == 0
    assert global_sign(g, xd) == 1


def test_factorize_house():
    xd = factorize(named("house"))
    assert xd.gamma.rows == (mask_of([1, 2, 3]),)
    assert xd.x_gamma == string_to_mask("10000")


def test_factorize_bistar():
    g = named("bistar")
    xd = factorize(g)
    expected = rref([mask_of([1, 2]), mask_of([1, 3]), mask_of([4, 5])], 5)
    assert xd.gamma == expected
    assert xd.x_gamma == 0  # every generator induces an edgeless subgraph


def test_correlation_state_house_b_side():
    # the subgroup whose correlation indices lie in {4,5} factors the
    # state: the A side is pinned to |100> and the B side carries the
    # four-term pattern +00 -01 -10 -11
    g = named("house")
    xd = factorize(g)
    k = rref([mask_of([4, 5]), mask_of([2, 3, 4])], 5)
    got = correlation_state(g, xd, k, 0)
    assert got.half_log_norm == 2
    assert got.terms == expect_terms(
        {"10000": 1, "10010": -1, "10001": -1, "10011": -1}
    )


def test_factorize_structural_invariants():
    rng = random.Random(41)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 11))
        xd = factorize(g)
        assert len(set(xd.exclusive)) == len(xd.exclusive)
        assert xd.gamma.dim + len(xd.kappa) == g.n
        assert set(xd.exclusive) | set(xd.kappa) == set(range(1, g.n + 1))
        for v, row in zip(xd.exclusive, xd.gamma.rows):
            assert (row >> (v - 1)) & 1
            for other in xd.gamma.rows:
                assert other == row or not (other >> (v - 1)) & 1


def test_xchain_state_examples():
    g = named("k4minus1")
    xd = factorize(g)
    assert xchain_state(g, xd, mask_of([2, 3])) == (-1, string_to_mask("1111"))
    assert xchain_state(g, xd, 0) == (1, xd.x_gamma)
    assert xchain_state(g, xd, mask_of([3])) == (1, string_to_mask("0101"))


def test_correlation_state_examples():
    g = named("k4minus1")
    xd = factorize(g)
    got = correlation_state(g, xd, rref([mask_of([2, 3])], 4), 0)
    assert got.half_log_norm == 1
    assert got.terms == expect_terms({"1000": 1, "1111": -1})
    single = correlation_state(g, xd, rref([], 4), mask_of([3]))
    assert single.half_log_norm == 0
    assert single.terms == expect_terms({"0101": 1})


def test_correlation_state_collision_rejected():
    g = named("k4minus1")
    xd = factorize(g)
    overlapping = rref([mask_of([2, 4])], 4)  # an X-chain: collides
    with pytest.raises(ValueError):
        correlation_state(g, xd, overlapping, 0)


def test_x_representation_fixtures():
    got = x_representation(named("k4minus1"))
    assert got.half_log_norm == 2
    assert got.terms == expect_terms({"1000": 1, "0010": 1, "0101": 1, "1111": -1})

    got = x_representation(named("empty:3"))
    assert (got.half_log_norm, got.terms) == (0, {0: 1})

    got = x_representation(named("star:3"))
    assert got.half_log_norm == 2
    assert got.terms == expect_terms({"000": 1, "100": 1, "011": 1, "111": -1})


# X-chain state sets of all eight 3-vertex graph states, frozen from
# the dense oracle.  Support strings are x_Gamma xor a correlation
# index; for the path centered at 2 the adjacency image is
# {000,010,101,111}, so |010> is in the support and |100> is not.
THREE_VERTEX_TABLE = [
    ([], {"000": 1}),
    ([(1, 2)], {"000": 1, "010": 1, "100": 1, "110": -1}),
    ([(1, 3)], {"000": 1, "001": 1, "100": 1, "101": -1}),
    ([(2, 3)], {"000": 1, "001": 1, "010": 1, "011": -1}),
    ([(1, 2), (1, 3)], {"000": 1, "100": 1, "011": 1, "111": -1}),
    ([(1, 2), (2, 3)], {"000": 1, "010": 1, "101": 1, "111": -1}),
    ([(1, 3), (2, 3)], {"000": 1, "001": 1, "110": 1, "111": -1}),
    ([(1, 2), (1, 3), (2, 3)], {"100": 1, "010": 1, "001": 1, "111": -1}),
]


def test_three_vertex_state_table():
    for edges, expected in THREE_VERTEX_TABLE:
        g = from_edges(3, edges)
        e = x_representation(g)
        assert e.terms == expect_terms(expected), f"edges {edges}"
        dense = dense_to_x(dense_state_z(g)).reduced()
        assert {m: a for m, a in enumerate(dense.amps) if a} == e.terms


def test_measurement_support_examples():
    got = measurement_support(named("cycle:3"))
    expect = sorted(
        (string_to_mask(b), Fraction(1, 4)) for b in ("100", "010", "001", "111")
    )
    assert got == expect
    assert measurement_support(named("empty:3")) == [(0, Fraction(1))]
    rng = random.Random(42)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 11))
        assert sum(p for _, p in measurement_support(g)) == 1


def test_measurement_support_caps_outcomes_not_vertices():
    assert measurement_support(named("empty:24")) == [(0, Fraction(1))]
    star = measurement_support(named("star:32"))
    assert len({mask for mask, _ in star}) == 4
    assert all(p == Fraction(1, 4) for _, p in star)
    with pytest.raises(ValueError, match="capped"):
        measurement_support(named("complete:24"))


def test_distinguishing_outcomes_examples():
    only_g, only_h = distinguishing_outcomes(named("empty:3"), named("cycle:3"))
    assert only_g == {0}
    assert only_h == {string_to_mask(b) for b in ("100", "010", "001", "111")}
    same = distinguishing_outcomes(named("house"), named("house"))
    assert same == (set(), set())
    only_g, only_h = distinguishing_outcomes(named("star:3"), named("cycle:3"))
    assert only_g == {string_to_mask(b) for b in ("000", "011")}
    assert only_h == {string_to_mask(b) for b in ("010", "001")}


def test_xchain_group_matches_brute_force():
    for n in range(1, 6):
        for g in all_graphs(n):
            assert span_set(xchain_group(g)) == brute_xchains(g)
    rng = random.Random(43)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(6, 11))
        assert span_set(xchain_group(g)) == brute_xchains(g)


def test_parity_homomorphism_on_xchain_span():
    rng = random.Random(44)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(1, 9))
        rows = xchain_group(g).rows
        elems = list(iter_span(rows))
        for g1 in elems:
            for g2 in elems:
                assert stabilizer_parity(g, g1 ^ g2) == stabilizer_parity(
                    g, g1
                ) * stabilizer_parity(g, g2)


def test_global_sign_matches_reference_sum():
    def check(g):
        xd = factorize(g)
        assert global_sign(g, xd) == parity_sum_sign(g, [1 << (v - 1) for v in xd.kappa])

    for n in range(1, 7):
        for g in all_graphs(n):
            check(g)
    rng = random.Random(46)
    for n in range(7, 19):
        for p in (0.1, 0.25, 0.5, 0.75):
            check(gnp_graph(rng, n, p))


def test_free_block_of_adjacency_is_nonsingular():
    # global_sign rests on this: A[K,K] has full GF(2) rank, so the
    # cut-parity form is symplectic on the free singletons and |K| is even
    rng = random.Random(47)
    for n in range(1, 33):
        for p in (0.05, 0.1, 0.25, 0.5, 0.75, 0.9):
            for _ in range(3):
                g = gnp_graph(rng, n, p)
                free = [v - 1 for v in factorize(g).kappa]
                block = [gf2.restrict(g.adj[v], free) for v in free]
                assert gf2.rank(block, len(free)) == len(free)
                assert len(free) % 2 == 0


def test_global_sign_rejects_a_singular_form():
    # a free set that is not one is a broken invariant, not bad input
    g = named("empty:2")
    xd = XChainData(xchain_group(g), (), (1, 2), 0)
    with pytest.raises(AssertionError):
        global_sign(g, xd)


def test_x_representation_matches_oracle():
    rng = random.Random(45)
    for _ in range(120):
        g = random_graph(rng, rng.randrange(1, 11))
        e = x_representation(g)
        assert len(e.terms) == 1 << (g.n - xchain_group(g).dim)
        assert all(s in (1, -1) for s in e.terms.values())
        dense = dense_to_x(dense_state_z(g)).reduced()
        assert dense.scale == e.half_log_norm
        assert {m: a for m, a in enumerate(dense.amps) if a} == e.terms
    for g in [named("empty:12"), random_graph(rng, 12)]:
        e = x_representation(g)
        dense = dense_to_x(dense_state_z(g)).reduced()
        assert {m: a for m, a in enumerate(dense.amps) if a} == e.terms


def test_expansion_splitting_identity():
    # the state over k1 + k2 is the normalized sum of k1-states shifted
    # through span(k2), as exact expansions
    rng = random.Random(46)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(2, 9))
        xd = factorize(g)
        if len(xd.kappa) < 2:
            continue
        singles = [1 << (v - 1) for v in xd.kappa]
        cut = rng.randrange(1, len(singles))
        k1 = rref(singles[:cut], g.n)
        k2 = rref(singles[cut:], g.n)
        k12 = rref(singles, g.n)
        xi = 0
        combined = correlation_state(g, xd, k12, xi)
        terms = {}
        for shift in iter_span(k2.rows):
            part = correlation_state(g, xd, k1, xi ^ shift)
            for mask, sign in part.terms.items():
                assert mask not in terms
                terms[mask] = sign
        assert combined.terms == terms
        assert combined.half_log_norm == k1.dim + k2.dim


def test_correlation_states_are_stabilized():
    # every correlation state is fixed by the stabilizers induced from
    # the X-chain span combined with the chosen subgroup
    rng = random.Random(47)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 8))
        xd = factorize(g)
        singles = [1 << (v - 1) for v in xd.kappa]
        chosen = [s for s in singles if rng.getrandbits(1)]
        k = rref(chosen, g.n)
        rest = [s for s in singles if s not in chosen]
        xi = 0
        for s in rest:
            if rng.getrandbits(1):
                xi ^= s
        e = correlation_state(g, xd, k, xi)
        state = dense_from_expansion(e)
        for gamma in iter_span(xd.gamma.rows):
            for kappa in iter_span(k.rows):
                assert check_stabilizer(state, induced_stabilizer(g, gamma ^ kappa))


def _random_pivoted_kernel_basis(g, rng):
    """An alternative X-chain basis where each row owns a random pivot."""
    rows = list(xchain_group(g).rows)
    for _ in range(3 * len(rows)):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        if i != j:
            rows[i] ^= rows[j]
    pivots = []
    for i in range(len(rows)):
        choices = [b for b in range(g.n) if (rows[i] >> b) & 1 and b not in pivots]
        p = rng.choice(choices)
        pivots.append(p)
        for j in range(len(rows)):
            if j != i and (rows[j] >> p) & 1:
                rows[j] ^= rows[i]
    return rows, pivots


def test_generator_choice_independence():
    # alternative pivoted kernel bases give the same term set and, after
    # sign normalization, identical expansions
    rng = random.Random(48)
    done = 0
    while done < 40:
        g = random_graph(rng, rng.randrange(2, 9))
        if xchain_group(g).dim == 0:
            continue
        done += 1
        rows, pivots = _random_pivoted_kernel_basis(g, rng)
        x_alt = 0
        for p, row in zip(pivots, rows):
            if stabilizer_parity(g, row) == -1:
                x_alt |= 1 << p
        kappa_alt = tuple(v + 1 for v in range(g.n) if v not in pivots)
        xd_alt = XChainData(rref(rows, g.n), tuple(p + 1 for p in pivots), kappa_alt, x_alt)
        alt = correlation_state(g, xd_alt, rref([1 << (v - 1) for v in kappa_alt], g.n), 0)
        total = sum(alt.terms.values())
        assert total != 0
        if total < 0:
            alt.terms = {m: -s for m, s in alt.terms.items()}
        assert alt.terms == x_representation(g).terms
