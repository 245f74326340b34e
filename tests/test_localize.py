"""Localization codes, nearest-codeword decoding, seeded simulation."""

import random
from fractions import Fraction

import pytest

from helpers import all_graphs, random_graph
from reference import PauliStabilizer, apply_pauli, string_to_mask, x_distribution
from graphstates.gf2 import contains, mask_of
from graphstates.graphs import Bipartition, from_edges, named
from graphstates.localize import DecodingTie, decode, extract_code, simulate
from graphstates.oracle import dense_state_z, dense_to_x
from graphstates.schmidt import partition_groups, schmidt_vectors
from graphstates.xchains import xchain_group


def bistar_code():
    g = named("bistar")
    return g, Bipartition.from_a(5, [1, 2, 3])


def test_extract_code_bistar():
    g, part = bistar_code()
    code = extract_code(g, part)
    assert code.qubits_a == (1, 2, 3)
    words = {w for _, w in code.codewords}
    assert words == {string_to_mask("000"), string_to_mask("111")}
    assert code.distance == 3
    # the label is the canonical coset representative of {4}
    labels = [label for label, _ in code.codewords]
    gamma = xchain_group(g)
    assert any(contains(gamma, label ^ mask_of([4])) for label in labels)


def test_extract_code_single_codeword_sentinel():
    g = named("empty:4")
    part = Bipartition.from_a(4, [1, 2, 3])
    code = extract_code(g, part)
    assert len(code.codewords) == 1
    assert code.distance == 4  # |A| + 1 sentinel, no codeword pair exists


def _pairwise_distance(code):
    words = [w for _, w in code.codewords]
    return min(
        ((w1 ^ w2).bit_count() for i, w1 in enumerate(words) for w2 in words[i + 1:]),
        default=len(code.qubits_a) + 1,
    )


def test_distance_equals_the_pairwise_minimum():
    # every graph with n <= 5 and every cut, then seeded graphs with n = 6..12
    rng = random.Random(74)
    cases = [(g, a) for n in range(2, 6) for g in all_graphs(n) for a in range(1, (1 << n) - 1)]
    for n in range(6, 13):
        cases += [(random_graph(rng, n), rng.randrange(1, (1 << n) - 1)) for _ in range(60)]
    checked = 0
    for g, a in cases:
        try:
            code = extract_code(g, Bipartition(g.n, a, ((1 << g.n) - 1) & ~a))
        except ValueError:
            continue
        assert code.distance == _pairwise_distance(code)
        checked += 1
    assert checked > 1000


def test_distance_of_the_16_edge_matching():
    # 2^16 codewords: every word on A occurs, so the distance is 1
    g = from_edges(32, [(i, i + 16) for i in range(1, 17)])
    code = extract_code(g, Bipartition.from_a(32, range(1, 17)))
    assert len(code.codewords) == 1 << 16
    assert code.distance == 1


def test_code_refused_by_cut_rank_before_the_walk(monkeypatch, capsys):
    import graphstates.gf2 as gf2
    import graphstates.localize as localize
    from graphstates.cli import run
    from graphstates.graphs import emit_graph6

    # the 3-edge matching {i, i+3} with A = 1..3 has cut rank 3 and 2^3 codewords
    g = from_edges(6, [(1, 4), (2, 5), (3, 6)])
    part = Bipartition.from_a(6, [1, 2, 3])
    monkeypatch.setattr(localize, "EXPANSION_LIMIT", 3)
    assert len(extract_code(g, part).codewords) == 8

    def no_span(rows):
        raise AssertionError("span must not run")

    monkeypatch.setattr(localize, "EXPANSION_LIMIT", 2)
    monkeypatch.setattr(gf2, "span", no_span)
    with pytest.raises(ValueError, match=r"cut rank k=3 has 2\^3 codewords; capped at 2\^2"):
        extract_code(g, part)
    argv = ["localize", "--graph", "g6:" + emit_graph6(g), "--part-a", "1,2,3"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: localization code with cut rank k=3 has 2^3 codewords; capped at 2^2"
    ]


def test_extract_code_rejects_superposed_vectors():
    g = named("house")
    part = Bipartition.from_a(5, [1, 2, 3])
    with pytest.raises(ValueError, match="inside-A subgroup"):
        extract_code(g, part)


def test_decode_examples():
    g, part = bistar_code()
    code = extract_code(g, part)
    label, corrected, flips = decode(code, string_to_mask("110"))
    assert corrected == string_to_mask("111")
    assert flips == 1
    gamma = xchain_group(g)
    assert contains(gamma, label ^ mask_of([4]))

    for codeword_label, word in code.codewords:
        assert decode(code, word) == (codeword_label, word, 0)

    label, corrected, flips = decode(code, string_to_mask("100"))
    assert (corrected, flips) == (string_to_mask("000"), 1)
    assert label == 0

    with pytest.raises(ValueError):
        decode(code, 0b11111)


def test_decode_tie_is_reported_not_guessed():
    # path 1-2-3 with A = {1,3} has codewords {00, 11}: distance 2
    g = named("path:3")
    part = Bipartition.from_a(3, [1, 3])
    code = extract_code(g, part)
    assert code.distance == 2
    with pytest.raises(DecodingTie):
        decode(code, string_to_mask("10"))


def test_simulate_bistar_scenarios():
    g, part = bistar_code()
    for seed in range(8):
        rep = simulate(g, part, mask_of([3]), seed)
        assert rep.success
        assert rep.flips == 1
        assert rep.corrected == rep.ideal_word

        rep = simulate(g, part, 0, seed)
        assert rep.success
        assert rep.flips == 0
        assert rep.noisy == rep.ideal_word

        rep = simulate(g, part, mask_of([2, 3]), seed)
        assert not rep.success
        assert rep.flips == 1  # two flips pull the word past the midpoint

    with pytest.raises(ValueError):
        simulate(g, part, mask_of([4]), 0)


def test_simulate_is_deterministic_per_seed():
    g, part = bistar_code()
    a = simulate(g, part, mask_of([1]), 123)
    b = simulate(g, part, mask_of([1]), 123)
    assert a == b


def test_decoded_label_matches_schmidt_vector():
    g, part = bistar_code()
    pg = partition_groups(g, part)
    for seed in range(6):
        rep = simulate(g, part, mask_of([2]), seed)
        _, _, vec_b = schmidt_vectors(g, pg, rep.decoded_label)
        assert rep.bob_state == vec_b


def test_simulate_builds_the_partition_groups_once(monkeypatch):
    import graphstates.localize as localize

    calls = []

    def counted(g, part):
        calls.append(part)
        return partition_groups(g, part)

    monkeypatch.setattr(localize, "partition_groups", counted)
    g, part = bistar_code()
    simulate(g, part, mask_of([2]), 0)
    assert calls == [part]


def _codes_up_to(n_max, rng, per_n=40):
    """Graph/partition pairs that admit string codewords."""
    out = []
    for n in range(2, 5):
        for g in all_graphs(n):
            for a in range(1, (1 << n) - 1):
                out.append((g, Bipartition(n, a, ((1 << n) - 1) & ~a)))
    for n in range(5, n_max + 1):
        for _ in range(per_n):
            g = random_graph(rng, n)
            a = rng.randrange(1, (1 << n) - 1)
            out.append((g, Bipartition(n, a, ((1 << n) - 1) & ~a)))
    return out


def test_weight_one_errors_always_corrected_when_distance_3():
    rng = random.Random(71)
    checked = 0
    for g, part in _codes_up_to(10, rng):
        try:
            code = extract_code(g, part)
        except ValueError:
            continue
        if code.distance < 3 or len(code.codewords) < 2:
            continue
        checked += 1
        for label, word in code.codewords:
            for bit in range(len(code.qubits_a)):
                got_label, got_word, flips = decode(code, word ^ (1 << bit))
                assert (got_label, got_word, flips) == (label, word, 1)
    assert checked > 0


def test_x_errors_do_not_change_outcome_distribution():
    # a phase error on an A vertex leaves the X-measurement Born
    # distribution untouched
    rng = random.Random(72)
    for _ in range(40):
        n = rng.randrange(2, 9)
        g = random_graph(rng, n)
        v = rng.randrange(1, n + 1)
        flipped = apply_pauli(
            dense_state_z(g), PauliStabilizer(n, 1, 1 << (v - 1), 0)
        )
        sx = dense_to_x(flipped)
        denom = 1 << sx.scale
        dist = {m: Fraction(a * a, denom) for m, a in enumerate(sx.amps) if a}
        assert dist == x_distribution(g)
