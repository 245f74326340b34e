"""Bipartition subgroups, Schmidt vectors, decompositions, ranks."""

import random

import pytest

from helpers import all_graphs, gnp_graph, random_graph, random_bipartition_mask
from reference import (
    cut_parity,
    is_stabilized,
    per_label_schmidt_vectors,
    scatter,
    string_to_mask,
)
from graphstates import gf2
from graphstates.bias import DyadicReal
from graphstates.gf2 import mask_of, rref, span
from graphstates.graphs import Bipartition, Graph, named
from graphstates.oracle import dense_schmidt_rank, dense_state_z, dense_to_x
from graphstates.schmidt import (
    partition_groups,
    schmidt_decomposition,
    schmidt_rank,
    schmidt_vectors,
)
from graphstates.stab import correlation_index
from graphstates.xchains import (
    XBasisExpansion,
    correlation_state,
    factorize,
    x_representation,
    xchain_group,
)


def part_of(g, a_vertices):
    return Bipartition.from_a(g.n, a_vertices)


def terms_of(entries):
    return {string_to_mask(b): s for b, s in entries.items()}


def same_span(basis, rows, width):
    return rref(list(basis.rows), width) == rref(rows, width)


def same_span_mod_xchains(basis, rows, g):
    gamma = xchain_group(g)
    lhs = rref(list(basis.rows) + list(gamma.rows), g.n)
    rhs = rref(rows + list(gamma.rows), g.n)
    return lhs == rhs


def test_partition_groups_house():
    g = named("house")
    pg = partition_groups(g, part_of(g, [1, 2, 3]))
    assert same_span(pg.k_b, [mask_of([4, 5]), mask_of([2, 3, 4])], 5)
    assert same_span(pg.k_aa, [mask_of([2, 3])], 5)
    assert pg.k_simb.dim == 0
    assert same_span(pg.k_harpoon, [mask_of([2])], 5)


def test_partition_groups_bistar():
    g = named("bistar")
    pg = partition_groups(g, part_of(g, [1, 2, 3]))
    assert pg.k_aa.dim == 0
    assert pg.k_simb.dim == 0
    # the canonical representatives differ from {1} and {4} by X-chains
    assert pg.k_b.dim == 1
    assert same_span_mod_xchains(pg.k_b, [mask_of([1])], g)
    assert pg.k_harpoon.dim == 1
    assert same_span_mod_xchains(pg.k_harpoon, [mask_of([4])], g)


def test_partition_groups_dimension_bookkeeping():
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randrange(2, 10)
        g = random_graph(rng, n)
        a = random_bipartition_mask(rng, n)
        pg = partition_groups(g, Bipartition(n, a, ((1 << n) - 1) & ~a))
        total = pg.k_aa.dim + pg.k_simb.dim + pg.k_b.dim + pg.k_harpoon.dim
        assert total == n - pg.xdata.gamma.dim
        # the four spans are independent inside the representative space
        stacked = (
            list(pg.k_aa.rows) + list(pg.k_simb.rows)
            + list(pg.k_b.rows) + list(pg.k_harpoon.rows)
        )
        assert rref(stacked, n).dim == total
        assert all(gf2.contains(pg.xdata.free_span, r) for r in stacked)


def _check_subgroup_definitions(g, part):
    # brute force over span(W), independent of the kernel algebra
    pg = partition_groups(g, part)
    corr = {w: correlation_index(g, w) for w in span(pg.xdata.free_span.rows)}
    assert set(span(pg.k_b.rows)) == {w for w, c in corr.items() if not c & part.a}
    assert set(span(pg.k_aa.rows)) == {
        w for w, c in corr.items() if not w & part.b and not c & part.b
    }
    assert set(span(pg.a_group.rows)) == {
        w for w, c in corr.items()
        if not c & part.b and all(cut_parity(g, w, beta) == 0 for beta in pg.k_b.rows)
    }
    assert rref(list(pg.k_aa.rows) + list(pg.k_simb.rows), g.n) == pg.a_group
    assert pg.k_aa.dim + pg.k_simb.dim == pg.a_group.dim


def test_partition_groups_match_their_definitions():
    rng = random.Random(66)
    graphs = [g for n in range(2, 6) for g in all_graphs(n)]
    graphs += [gnp_graph(rng, n, 0.5) for n in range(6, 11) for _ in range(60)]
    for g in graphs:
        a = random_bipartition_mask(rng, g.n)
        _check_subgroup_definitions(g, Bipartition(g.n, a, ((1 << g.n) - 1) & ~a))


def test_schmidt_vectors_house():
    g = named("house")
    pg = partition_groups(g, part_of(g, [1, 2, 3]))
    sign, vec_a, vec_b = schmidt_vectors(g, pg, 0)
    assert sign == 1
    assert vec_a.half_log_norm == 1
    assert vec_a.terms == terms_of({"100": 1, "111": -1})
    assert vec_b.half_log_norm == 2
    assert vec_b.terms == terms_of({"00": 1, "01": -1, "10": -1, "11": -1})

    sign, vec_a, vec_b = schmidt_vectors(g, pg, mask_of([2]))
    assert sign == 1
    assert vec_a.terms == terms_of({"001": 1, "010": 1})
    assert vec_b.terms == terms_of({"00": -1, "01": -1, "10": -1, "11": 1})


def test_schmidt_vectors_bistar():
    g = named("bistar")
    pg = partition_groups(g, part_of(g, [1, 2, 3]))
    label = pg.k_harpoon.rows[0]
    sign, vec_a, vec_b = schmidt_vectors(g, pg, label)
    assert sign == 1
    assert vec_a.terms == terms_of({"111": 1})
    assert vec_b.terms == terms_of({"00": 1, "11": -1})


def test_schmidt_vectors_rejects_outside_label():
    g = named("house")
    pg = partition_groups(g, part_of(g, [1, 2, 3]))
    with pytest.raises(ValueError):
        schmidt_vectors(g, pg, mask_of([3]))


def test_schmidt_decomposition_house():
    g = named("house")
    dec = schmidt_decomposition(g, part_of(g, [1, 2, 3]))
    assert dec.coeff == DyadicReal(1, 1)
    assert dec.rank == 2
    # the factorized term data reproduces minus the state: the free
    # vertices induce a complete graph whose parity sum is -4
    assert dec.alpha == -1
    labels = [t.label for t in dec.terms]
    assert labels == [0, mask_of([2])]


def test_schmidt_decomposition_bistar_bell_pair():
    g = named("bistar")
    dec = schmidt_decomposition(g, part_of(g, [1, 2, 3]))
    assert dec.coeff == DyadicReal(1, 1)
    assert [t.sign for t in dec.terms] == [1, 1]
    assert dec.terms[0].vec_a.terms == terms_of({"000": 1})
    assert dec.terms[0].vec_b.terms == terms_of({"00": 1, "11": 1})
    assert dec.terms[1].vec_a.terms == terms_of({"111": 1})
    assert dec.terms[1].vec_b.terms == terms_of({"00": 1, "11": -1})


def test_schmidt_decomposition_product_state():
    g = named("empty:4")
    dec = schmidt_decomposition(g, part_of(g, [1, 2, 3]))
    assert dec.rank == 1
    assert dec.coeff == DyadicReal(1, 0)


def test_schmidt_rank_examples():
    g = named("house")
    assert schmidt_rank(g, part_of(g, [1, 2, 3])) == 1
    e = named("empty:5")
    assert schmidt_rank(e, part_of(e, [2, 4])) == 0
    b = named("bistar")
    assert schmidt_rank(b, part_of(b, [1, 2, 3])) == 1


def _inner(e1, e2):
    assert e1.half_log_norm == e2.half_log_norm
    return sum(s * e2.terms.get(m, 0) for m, s in e1.terms.items())


def _check_orthonormal(g, part):
    pg = partition_groups(g, part)
    vecs = [schmidt_vectors(g, pg, xi) for xi in span(pg.k_harpoon.rows)]
    for i, (_, a1, b1) in enumerate(vecs):
        assert _inner(a1, a1) == 1 << a1.half_log_norm
        assert _inner(b1, b1) == 1 << b1.half_log_norm
        for _, a2, b2 in vecs[i + 1:]:
            assert _inner(a1, a2) == 0
            assert _inner(b1, b2) == 0


def test_orthonormality_exhaustive_small():
    for n in range(2, 5):
        for g in all_graphs(n):
            for a in range(1, (1 << n) - 1):
                _check_orthonormal(g, Bipartition(n, a, ((1 << n) - 1) & ~a))


def test_orthonormality_sampled_to_n7():
    rng = random.Random(62)
    for _ in range(60):
        n = rng.randrange(5, 8)
        g = random_graph(rng, n)
        a = random_bipartition_mask(rng, n)
        _check_orthonormal(g, Bipartition(n, a, ((1 << n) - 1) & ~a))


def _check_reconstruction(g, part):
    dec = schmidt_decomposition(g, part)
    pos_a = part.a_positions()
    pos_b = part.b_positions()
    full = {}
    scale = None
    for t in dec.terms:
        scale = dec.coeff.half_log + t.vec_a.half_log_norm + t.vec_b.half_log_norm
        for ma, sa in t.vec_a.terms.items():
            for mb, sb in t.vec_b.terms.items():
                mask = scatter(ma, pos_a) | scatter(mb, pos_b)
                assert mask not in full
                full[mask] = dec.alpha * t.sign * sa * sb
    e = x_representation(g)
    assert scale == e.half_log_norm
    assert full == e.terms
    dense = dense_to_x(dense_state_z(g)).reduced()
    assert {m: v for m, v in enumerate(dense.amps) if v} == full


def test_reconstruction_exhaustive_small():
    for n in range(2, 5):
        for g in all_graphs(n):
            for a in range(1, (1 << n) - 1):
                _check_reconstruction(g, Bipartition(n, a, ((1 << n) - 1) & ~a))


def test_reconstruction_all_bipartitions_sampled_n6():
    rng = random.Random(65)
    for _ in range(20):
        n = rng.randrange(5, 7)
        g = random_graph(rng, n)
        for a in range(1, (1 << n) - 1):
            _check_reconstruction(g, Bipartition(n, a, ((1 << n) - 1) & ~a))


def test_reconstruction_sampled_to_n10():
    rng = random.Random(63)
    for _ in range(60):
        n = rng.randrange(5, 11)
        g = random_graph(rng, n)
        a = random_bipartition_mask(rng, n)
        _check_reconstruction(g, Bipartition(n, a, ((1 << n) - 1) & ~a))


def test_rank_matches_dense_oracle():
    rng = random.Random(64)
    for _ in range(100):
        n = rng.randrange(2, 10)
        g = random_graph(rng, n)
        a = random_bipartition_mask(rng, n)
        part = Bipartition(n, a, ((1 << n) - 1) & ~a)
        k = schmidt_rank(g, part)
        assert 1 << k == dense_schmidt_rank(g, part)


def test_cut_rank_equals_crossing_subgroup_dim_to_n32():
    # the cut rank of A[A, B] against the partition-group quotient, past the
    # dense oracle, with each cut taken in both orientations
    rng = random.Random(65)
    for _ in range(120):
        n = rng.randrange(2, 33)
        g = gnp_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.8]))
        a = random_bipartition_mask(rng, n)
        b = ((1 << n) - 1) & ~a
        for part in (Bipartition(n, a, b), Bipartition(n, b, a)):
            assert schmidt_rank(g, part) == partition_groups(g, part).k_harpoon.dim


def test_decomposition_rejects_a_rank_mismatch(monkeypatch):
    import graphstates.schmidt as schmidt

    g = named("house")
    monkeypatch.setattr(schmidt, "schmidt_rank", lambda g, part: 2)
    with pytest.raises(AssertionError, match="rank bookkeeping mismatch"):
        schmidt.schmidt_decomposition(g, part_of(g, [1, 2, 3]))


def test_nonempty_detached_subgroup_is_detected_and_harmless():
    # the canonical representatives can force a crossing-support member
    # whose coset also admits an A-supported representative; separability
    # and reconstruction are unaffected
    g = named("star:3")
    part = part_of(g, [1, 2])
    pg = partition_groups(g, part)
    assert pg.k_simb.dim == 1
    assert pg.k_simb.rows == (mask_of([3]),)
    _check_orthonormal(g, part)
    _check_reconstruction(g, part)


def test_translated_factors_match_per_label_construction_exhaustive_n5():
    # every label's factors against the per-label construction, which
    # expands both subgroups at the label itself
    for n in range(2, 6):
        for g in all_graphs(n):
            for a in range(1, (1 << n) - 1):
                pg = partition_groups(g, Bipartition(n, a, ((1 << n) - 1) & ~a))
                for xi in span(pg.k_harpoon.rows):
                    assert schmidt_vectors(g, pg, xi) == per_label_schmidt_vectors(g, pg, xi)


def test_translated_factors_match_per_label_construction_to_n32():
    # seeded sparse G(n, p) cuts whose 2^k (2^dim a_group + 2^dim k_b)
    # factor terms stay under 2^12, four per n; the decomposition too
    rng = random.Random(67)
    for n in range(6, 33):
        kept = 0
        while kept < 4:
            g = gnp_graph(rng, n, rng.choice([1, 1.5, 2, 3]) / n)
            a = mask_of(rng.sample(range(1, n + 1), rng.randrange(1, n)))
            part = Bipartition(n, a, ((1 << n) - 1) & ~a)
            pg = partition_groups(g, part)
            if (1 << pg.k_harpoon.dim) * ((1 << pg.a_group.dim) + (1 << pg.k_b.dim)) >= 1 << 12:
                continue
            dec = schmidt_decomposition(g, part)
            assert [t.label for t in dec.terms] == sorted(span(pg.k_harpoon.rows))
            for t in dec.terms:
                expected = per_label_schmidt_vectors(g, pg, t.label)
                assert schmidt_vectors(g, pg, t.label) == expected
                assert (t.sign, t.vec_a, t.vec_b) == expected
            kept += 1


@pytest.mark.parametrize("graph, part_a", [
    ("house", [1, 2, 3]),  # k = 1
    ("cycle:6", [1, 2, 3]),  # k = 2
    ("cycle:12", [1, 3, 5, 7, 9, 11]),  # k = 5
    ("empty:4", [1, 2]),  # k = 0
])
def test_decomposition_expands_each_factor_subgroup_once(monkeypatch, graph, part_a):
    import graphstates.schmidt as schmidt

    calls = []

    def counted(g, xd, k, xi):
        calls.append(xi)
        return correlation_state(g, xd, k, xi)

    g = named(graph)
    monkeypatch.setattr(schmidt, "correlation_state", counted)
    dec = schmidt.schmidt_decomposition(g, part_of(g, part_a))
    assert calls == [0, 0]
    assert dec.rank == 1 << schmidt_rank(g, part_of(g, part_a))


def _low_rank_graph(rng, n, core):
    # G(core, 1/2) on the first vertices, then every further vertex is
    # isolated or a false twin of a core vertex, so |K| <= core; relabeled
    base = gnp_graph(rng, core, 0.5)
    nbrs = [set(gf2.vertices_of(base.adj[v])) for v in range(core)]
    for v in range(core, n):
        if rng.random() < 0.8:
            twin = rng.randrange(core)
            nbrs.append(set(nbrs[twin]))
            for u in nbrs[twin]:
                nbrs[u - 1].add(v + 1)
        else:
            nbrs.append(set())
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    adj = [0] * n
    for v in range(n):
        adj[perm[v] - 1] = mask_of(perm[u - 1] for u in nbrs[v])
    return Graph(n, tuple(adj))


def _reconstructed_terms(dec):
    pos_a = dec.part.a_positions()
    pos_b = dec.part.b_positions()
    full = {}
    for t in dec.terms:
        side_b = [(scatter(mb, pos_b), sb) for mb, sb in t.vec_b.terms.items()]
        for ma, sa in t.vec_a.terms.items():
            wa = scatter(ma, pos_a)
            for wb, sb in side_b:
                assert wa | wb not in full
                full[wa | wb] = dec.alpha * t.sign * sa * sb
    return full


def test_reconstruction_is_stabilized_past_the_dense_oracle():
    # n = 11..32 with |K| <= 12: the reconstruction equals x_representation
    # and every stabilizer generator fixes it, each cut in both orientations
    rng = random.Random(68)
    for n in range(11, 33):
        g = _low_rank_graph(rng, n, rng.randrange(4, 13))
        assert len(factorize(g).kappa) <= 12
        e = x_representation(g)
        assert is_stabilized(g, e)
        a = random_bipartition_mask(rng, n)
        b = ((1 << n) - 1) & ~a
        for part in (Bipartition(n, a, b), Bipartition(n, b, a)):
            dec = schmidt_decomposition(g, part)
            recon = XBasisExpansion(e.qubits, e.half_log_norm, _reconstructed_terms(dec))
            t = dec.terms[0]
            assert dec.k + t.vec_a.half_log_norm + t.vec_b.half_log_norm == e.half_log_norm
            assert recon.terms == e.terms
            assert is_stabilized(g, recon)


def test_is_stabilized_catches_a_flipped_sign():
    rng = random.Random(69)
    for n in range(3, 20):
        g = _low_rank_graph(rng, n, 3)
        e = x_representation(g)
        assert is_stabilized(g, e)
        if len(e.terms) > 1:
            m = rng.choice(sorted(e.terms))
            bad = XBasisExpansion(e.qubits, e.half_log_norm, dict(e.terms))
            bad.terms[m] = -bad.terms[m]
            assert not is_stabilized(g, bad)
