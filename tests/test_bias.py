"""Bias degrees, overlaps, balance tests, and the balanced catalog."""

import random
from itertools import combinations
from math import comb

import pytest

from helpers import all_graphs, random_graph
from reference import brute_canonical_form, negative_weight
from graphstates.bias import (
    DyadicReal,
    bias_degree,
    enumerate_balanced,
    is_balanced,
    overlap,
)
from graphstates.graphs import (
    from_edges,
    graph_symmetric_difference,
    named,
)
from graphstates.oracle import dense_overlap, dense_state_z
from graphstates.stab import correlation_index, induced_edge_count, stabilizer_parity


def test_dyadic_real_is_canonical():
    assert DyadicReal.zero() == DyadicReal(0, 0)
    assert str(DyadicReal(1, 2)) == "+2^-2/2"
    assert str(DyadicReal(-1, 1)) == "-2^-1/2"
    assert str(DyadicReal.zero()) == "0"
    assert DyadicReal(1, 0).approx() == 1.0
    with pytest.raises(ValueError):
        DyadicReal(0, 3)
    with pytest.raises(ValueError):
        DyadicReal(2, 0)


def test_bias_degree_examples():
    assert bias_degree(named("cycle:3")) == DyadicReal.zero()
    assert bias_degree(named("empty:4")) == DyadicReal(1, 0)
    assert bias_degree(named("star:3")) == DyadicReal(1, 2)


def test_overlap_examples():
    g = named("house")
    assert overlap(g, g) == DyadicReal(1, 0)
    assert overlap(named("cycle:3"), named("empty:3")) == DyadicReal.zero()
    assert overlap(named("star:3"), named("empty:3")) == DyadicReal(1, 2)
    with pytest.raises(ValueError):
        overlap(named("empty:3"), named("empty:4"))


def test_overlap_matches_oracle_exhaustive_n4():
    graphs = list(all_graphs(4))
    for g, h in combinations(graphs, 2):
        assert overlap(g, h) == dense_overlap(g, h)


def test_overlap_matches_oracle_random():
    rng = random.Random(51)
    for _ in range(500):
        n = rng.randrange(1, 11)
        g, h = random_graph(rng, n), random_graph(rng, n)
        d = overlap(g, h)
        assert d == dense_overlap(g, h)
        assert d == overlap(h, g)
        assert d.sign == 0 or d.half_log >= 0  # |overlap| <= 1


def test_bias_equals_normalized_parity_sum():
    # 2^n * bias equals the sum of all stabilizer parities
    for n in range(1, 7):
        for g in all_graphs(n):
            total = sum(stabilizer_parity(g, xi) for xi in range(1 << n))
            beta = bias_degree(g)
            if beta.sign == 0:
                assert total == 0
            else:
                assert beta.half_log % 2 == 0
                assert total == beta.sign * (1 << (n - beta.half_log // 2))


def dyadic_of_parity_sum(total: int, n: int) -> DyadicReal:
    """total * 2^-n as a DyadicReal; total is 0 or a signed power of two."""
    if total == 0:
        return DyadicReal.zero()
    mag = abs(total)
    assert mag & (mag - 1) == 0
    return DyadicReal(1 if total > 0 else -1, 2 * (n - mag.bit_length() + 1))


def test_bias_complete_graph_closed_form():
    # a k-subset of K_n induces C(k,2) edges
    for n in range(1, 33):
        total = sum(comb(n, k) * (-1) ** (k * (k - 1) // 2) for k in range(n + 1))
        assert bias_degree(named(f"complete:{n}")) == dyadic_of_parity_sum(total, n)


def test_bias_complete_bipartite_closed_form():
    # an (i, j)-subset of K_{a,b} induces i*j edges
    for n in range(1, 33):
        for a in range(n + 1):
            b = n - a
            g = from_edges(n, [(u, v) for u in range(1, a + 1) for v in range(a + 1, n + 1)])
            total = sum(
                comb(a, i) * comb(b, j) * (-1) ** (i * j)
                for i in range(a + 1)
                for j in range(b + 1)
            )
            assert bias_degree(g) == dyadic_of_parity_sum(total, n)


def test_is_balanced_examples():
    assert is_balanced(named("cycle:3"))
    assert not is_balanced(named("empty:4"))
    assert is_balanced(named("cycle:5"))


def test_is_balanced_isomorphism_invariant():
    for n in range(1, 6):
        for g in all_graphs(n):
            assert is_balanced(g) == is_balanced(brute_canonical_form(g))


def test_negative_weight_examples():
    assert negative_weight(named("cycle:3")) == 4
    assert negative_weight(named("empty:5")) == 0
    assert negative_weight(named("k4minus1")) == 8


def test_negative_weight_matches_oracle_count():
    rng = random.Random(52)
    for _ in range(150):
        g = random_graph(rng, rng.randrange(1, 11))
        count = sum(1 for a in dense_state_z(g).amps if a < 0)
        assert negative_weight(g) == count


def test_enumerate_balanced_small():
    assert enumerate_balanced(2) == []
    got = enumerate_balanced(3)
    assert len(got) == 1
    assert got[0].graph == brute_canonical_form(named("cycle:3"))
    assert got[0].witness_edge_count % 2 == 1


def test_enumerate_balanced_catalog_n5():
    catalog = enumerate_balanced(5)
    canon_c5 = brute_canonical_form(named("cycle:5")).adj
    assert any(entry.graph.adj == canon_c5 for entry in catalog)
    for entry in catalog:
        g = entry.graph
        assert dense_overlap(g, named("empty:5")) == DyadicReal.zero()
        assert correlation_index(g, entry.witness) == 0
        assert entry.witness_edge_count % 2 == 1
        assert stabilizer_parity(g, entry.witness) == -1
    # classes are pairwise non-isomorphic by construction
    assert len({e.graph.adj for e in catalog}) == len(catalog)
    with pytest.raises(ValueError):
        enumerate_balanced(6)


def test_enumerate_balanced_matches_brute_force_catalog():
    # one class per brute-force canonical form of a labeled graph whose
    # dense overlap with the all-plus state is zero, in the catalog's order
    for n in range(1, 6):
        plus = named(f"empty:{n}")
        reps = {
            brute_canonical_form(g)
            for g in all_graphs(n)
            if dense_overlap(g, plus) == DyadicReal.zero()
        }
        catalog = enumerate_balanced(n)
        assert [c.graph for c in catalog] == sorted(reps, key=lambda h: (h.edge_count(), h.adj))
        for c in catalog:
            assert c.witness and correlation_index(c.graph, c.witness) == 0
            assert stabilizer_parity(c.graph, c.witness) == -1
            assert c.witness_edge_count == induced_edge_count(c.graph, c.witness)
            assert c.witness_edge_count % 2 == 1


def test_orthogonal_partner_examples():
    # the partner of g along a balanced difference graph d is g + d
    c3, e3 = named("cycle:3"), named("empty:3")
    assert is_balanced(c3)
    assert graph_symmetric_difference(e3, c3) == c3
    assert graph_symmetric_difference(c3, c3) == e3
    c5, e5 = named("cycle:5"), named("empty:5")
    assert is_balanced(c5)
    assert graph_symmetric_difference(c5, c5) == e5
    assert overlap(c5, e5) == DyadicReal.zero()
    assert not is_balanced(named("star:3"))


def test_orthogonal_partner_always_orthogonal():
    rng = random.Random(53)
    balanced5 = [e.graph for e in enumerate_balanced(4)]
    for d in balanced5:
        for _ in range(10):
            g = random_graph(rng, d.n)
            h = graph_symmetric_difference(g, d)
            assert graph_symmetric_difference(g, h) == d
            assert overlap(g, h) == DyadicReal.zero()
            assert dense_overlap(g, h) == DyadicReal.zero()
