"""Acceptance suite: every criterion at its stated budget, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines and timings.
"""

import hashlib
import random
import time

from helpers import all_graphs, random_graph
from reference import (
    brute_canonical_form,
    check_stabilizer,
    cut_parity,
    dense_from_expansion,
    induced_stabilizer,
    multiply,
    string_to_mask,
)
from graphstates.bias import DyadicReal, enumerate_balanced
from graphstates.cli import run_verification
from graphstates.gf2 import (
    contains,
    mask_of,
    rref,
    span,
)
from graphstates.graphs import Bipartition, from_edges, named
from graphstates.localize import decode, extract_code
from graphstates.oracle import (
    dense_overlap,
    dense_state_z,
    dense_to_x,
)
from graphstates.schmidt import (
    partition_groups,
    schmidt_decomposition,
    schmidt_rank,
    schmidt_vectors,
)
from graphstates.stab import stabilizer_parity
from graphstates.xchains import (
    correlation_state,
    factorize,
    x_representation,
    xchain_group,
)


def timed(fn, budget_seconds, repeats=3):
    """Best-of-N wall time; returns (result, elapsed) and checks the budget."""
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    assert best < budget_seconds, f"budget {budget_seconds}s exceeded: {best:.6f}s"
    return result, best


def report(criterion, elapsed, detail):
    print(f"ACCEPTANCE {criterion} PASS ({elapsed * 1e3:.2f} ms): {detail}")


def terms(entries):
    return {string_to_mask(b): s for b, s in entries.items()}


def test_criterion_1_xchain_group_fixtures():
    cases = [
        ("star:3", [mask_of([2, 3])]),
        ("cycle:3", [mask_of([1, 2, 3])]),
        ("star:4", [mask_of([2, 3]), mask_of([2, 4])]),
    ]
    total = 0.0
    for name, gens in cases:
        g = named(name)
        expected = rref(gens, g.n)
        got, elapsed = timed(lambda: xchain_group(g), 0.001)
        assert got == expected
        total += elapsed
    report(1, total, "X-chain group spans for S3, C3, S4 (canonical bases)")


THREE_VERTEX_TABLE = [
    ([], {"000": 1}),
    ([(1, 2)], {"000": 1, "010": 1, "100": 1, "110": -1}),
    ([(1, 3)], {"000": 1, "001": 1, "100": 1, "101": -1}),
    ([(2, 3)], {"000": 1, "001": 1, "010": 1, "011": -1}),
    ([(1, 2), (1, 3)], {"000": 1, "100": 1, "011": 1, "111": -1}),
    # path centered at 2: |010> (the correlation index of {3}) is in
    # the support, |100> lies outside the adjacency image
    ([(1, 2), (2, 3)], {"000": 1, "010": 1, "101": 1, "111": -1}),
    ([(1, 3), (2, 3)], {"000": 1, "001": 1, "110": 1, "111": -1}),
    ([(1, 2), (1, 3), (2, 3)], {"100": 1, "010": 1, "001": 1, "111": -1}),
]


def test_criterion_2_three_vertex_state_table():
    def check():
        for edges, expected in THREE_VERTEX_TABLE:
            g = from_edges(3, edges)
            e = x_representation(g)
            assert e.terms == terms(expected), f"edges {edges}"
            dense = dense_to_x(dense_state_z(g)).reduced()
            assert {m: a for m, a in enumerate(dense.amps) if a} == e.terms

    _, elapsed = timed(check, 0.010)
    report(2, elapsed, "all 8 three-vertex X-chain state sets, oracle-confirmed")


def test_criterion_3_k4minus1_representation():
    g = named("k4minus1")

    def check():
        xd = factorize(g)
        assert xd.x_gamma == string_to_mask("1000")
        assert tuple(stabilizer_parity(g, r) for r in xd.gamma.rows) == (-1, 1)
        e = x_representation(g)
        assert e.half_log_norm == 2
        assert e.terms == terms({"1000": 1, "0010": 1, "0101": 1, "1111": -1})
        return e

    _, elapsed = timed(check, 0.001)
    report(3, elapsed, "K4-minus-edge expansion with x_Gamma=1000, parities -1/+1")


def test_criterion_4_house_and_bistar_schmidt():
    def check():
        house = named("house")
        part = Bipartition.from_a(5, [1, 2, 3])
        assert schmidt_rank(house, part) == 1
        dec = schmidt_decomposition(house, part)
        assert dec.coeff == DyadicReal(1, 1)
        assert [t.label for t in dec.terms] == [0, mask_of([2])]
        assert [t.sign for t in dec.terms] == [1, 1]
        assert dec.terms[0].vec_a.terms == terms({"100": 1, "111": -1})
        assert dec.terms[0].vec_b.terms == terms(
            {"00": 1, "01": -1, "10": -1, "11": -1}
        )
        assert dec.terms[1].vec_a.terms == terms({"001": 1, "010": 1})
        assert dec.terms[1].vec_b.terms == terms(
            {"00": -1, "01": -1, "10": -1, "11": 1}
        )

        bistar = named("bistar")
        dec = schmidt_decomposition(bistar, part)
        assert dec.coeff == DyadicReal(1, 1)
        assert dec.rank == 2
        assert [t.sign for t in dec.terms] == [1, 1]
        assert dec.terms[0].vec_a.terms == terms({"000": 1})
        assert dec.terms[0].vec_b.terms == terms({"00": 1, "11": 1})
        assert dec.terms[1].vec_a.terms == terms({"111": 1})
        assert dec.terms[1].vec_b.terms == terms({"00": 1, "11": -1})
        # the second label is the canonical coset representative of {4}
        gamma = xchain_group(bistar)
        assert contains(gamma, dec.terms[1].label ^ mask_of([4]))

    _, elapsed = timed(check, 0.010)
    report(4, elapsed, "house and bistar Schmidt terms match the fixed expected states")


def test_criterion_5_bistar_localization():
    def check():
        g = named("bistar")
        part = Bipartition.from_a(5, [1, 2, 3])
        code = extract_code(g, part)
        assert {w for _, w in code.codewords} == {0b000, 0b111}
        assert code.distance == 3
        label, corrected, flips = decode(code, string_to_mask("110"))
        assert corrected == string_to_mask("111")
        assert flips == 1
        assert contains(xchain_group(g), label ^ mask_of([4]))
        for cw_label, word in code.codewords:
            for bit in range(3):
                got = decode(code, word ^ (1 << bit))
                assert got == (cw_label, word, 1)

    _, elapsed = timed(check, 0.010)
    report(5, elapsed, "bistar code {000,111}, distance 3, weight-1 errors corrected")


def test_criterion_6_oracle_equivalence_sweep():
    start = time.perf_counter()
    count, mismatches, notes = run_verification(max_n=10, samples=100, seed=2024)
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"sweep took {elapsed:.1f}s"
    assert count == 1 + 2 + 8 + 64 + 1024 + 5 * 100
    assert mismatches == []
    assert len(notes) == 773
    digest = hashlib.sha256("\n".join(notes).encode()).hexdigest()
    assert digest == "0e513a58acb4ebc0a60da3e1fc51d3b4bb3d491e224835efbddf0e2ea69821be"
    report(
        6,
        elapsed,
        f"{count} graphs: group/expansion/overlap/rank/support all oracle-exact",
    )


def test_criterion_7_balanced_catalog():
    start = time.perf_counter()
    got3 = enumerate_balanced(3)
    assert [c.graph for c in got3] == [brute_canonical_form(named("cycle:3"))]
    canon_c5 = brute_canonical_form(named("cycle:5"))
    seen_c5 = False
    for n in range(1, 6):
        for entry in enumerate_balanced(n):
            g = entry.graph
            seen_c5 = seen_c5 or g == canon_c5
            assert dense_overlap(g, named(f"empty:{n}")) == DyadicReal.zero()
            assert entry.witness in set(span(xchain_group(g).rows))
            assert entry.witness_edge_count % 2 == 1
            assert stabilizer_parity(g, entry.witness) == -1
    assert seen_c5
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"catalog took {elapsed:.1f}s"
    report(7, elapsed, "balanced classes to n=5 oracle-zero with odd-edge witnesses")


def _lemma_suite_graphs():
    graphs = [g for n in range(1, 5) for g in all_graphs(n)]
    rng = random.Random(88)
    graphs += [random_graph(rng, 5) for _ in range(60)]
    graphs += [random_graph(rng, 6) for _ in range(60)]
    graphs += [named(x) for x in ("house", "bistar", "k4minus1", "cycle:6", "star:6")]
    return graphs, rng


def test_criterion_8_appendix_lemma_suite():
    start = time.perf_counter()
    graphs, rng = _lemma_suite_graphs()
    for g in graphs:
        n = g.n
        # parity multiplication against the edge-cut form, all pairs
        parities = [stabilizer_parity(g, xi) for xi in range(1 << n)]
        for x1 in range(1 << n):
            for x2 in range(1 << n):
                expect = -1 if cut_parity(g, x1, x2) else 1
                assert parities[x1] * parities[x2] * parities[x1 ^ x2] == expect
        # induction is a group homomorphism, all pairs
        stabs = [induced_stabilizer(g, xi) for xi in range(1 << n)]
        for x1 in range(1 << n):
            for x2 in range(1 << n):
                assert multiply(g, stabs[x1], stabs[x2]) == stabs[x1 ^ x2]
        # correlation states are fixed by their stabilizer product group
        xd = factorize(g)
        singles = [1 << (v - 1) for v in xd.kappa]
        chosen = [s for s in singles if rng.getrandbits(1)]
        k = rref(chosen, n)
        xi = 0
        for s in singles:
            if s not in chosen and rng.getrandbits(1):
                xi ^= s
        state = dense_from_expansion(correlation_state(g, xd, k, xi))
        for gamma in span(xd.gamma.rows):
            for kappa in span(k.rows):
                assert check_stabilizer(state, induced_stabilizer(g, gamma ^ kappa))
        # splitting identity: state over k1+k2 is the shifted sum over k2
        if len(singles) >= 2:
            cut = rng.randrange(1, len(singles))
            k1, k2 = rref(singles[:cut], n), rref(singles[cut:], n)
            combined = correlation_state(g, xd, rref(singles, n), 0)
            merged = {}
            for shift in span(k2.rows):
                part = correlation_state(g, xd, k1, shift)
                for mask, sign in part.terms.items():
                    assert mask not in merged
                    merged[mask] = sign
            assert combined.terms == merged
        # Schmidt factor orthonormality across every bipartition
        if n >= 2:
            for a in range(1, (1 << n) - 1):
                pg = partition_groups(g, Bipartition(n, a, ((1 << n) - 1) & ~a))
                vecs = [
                    schmidt_vectors(g, pg, label)
                    for label in span(pg.k_harpoon.rows)
                ]
                for i, (_, a1, b1) in enumerate(vecs):
                    assert sum(s * s for s in a1.terms.values()) == 1 << a1.half_log_norm
                    assert sum(s * s for s in b1.terms.values()) == 1 << b1.half_log_norm
                    for _, a2, b2 in vecs[i + 1:]:
                        assert sum(s * a2.terms.get(m, 0) for m, s in a1.terms.items()) == 0
                        assert sum(s * b2.terms.get(m, 0) for m, s in b1.terms.items()) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"lemma suite took {elapsed:.1f}s"
    report(
        8,
        elapsed,
        f"{len(graphs)} graphs: parity-cut, homomorphism, stabilization, "
        "splitting, orthonormality",
    )
