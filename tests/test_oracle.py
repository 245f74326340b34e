"""Dense integer statevector reference: exactness and fixtures."""

import random
from fractions import Fraction

import pytest

from helpers import all_graphs, random_bipartition_mask, random_graph
from reference import (
    PauliStabilizer,
    _bareiss_rank,
    apply_pauli,
    check_stabilizer,
    generator,
    induced_stabilizer,
    multiply,
    norm_squared_is_unit,
    scatter,
    state_overlap,
    string_to_mask,
    x_distribution,
)
from graphstates.bias import DyadicReal
from graphstates.gf2 import mask_of
from graphstates.graphs import Bipartition, named
from graphstates.oracle import (
    DenseState,
    brute_xchains,
    dense_overlap,
    dense_schmidt_rank,
    dense_state_z,
    dense_to_x,
)
from graphstates.stab import correlation_index, stabilizer_parity


def test_dense_state_z_examples():
    s = dense_state_z(named("empty:1"))
    assert (s.amps, s.scale) == ([1, 1], 1)
    assert sum(1 for a in dense_state_z(named("cycle:3")).amps if a < 0) == 4
    assert sum(1 for a in dense_state_z(named("k4minus1")).amps if a < 0) == 8
    with pytest.raises(ValueError):
        dense_state_z(named("empty:15"))


def test_dense_to_x_point_mass_on_empty_graph():
    for n in (1, 3, 5):
        sx = dense_to_x(dense_state_z(named(f"empty:{n}"))).reduced()
        assert sx.amps[0] != 0
        assert all(a == 0 for a in sx.amps[1:])
        assert (sx.amps[0], sx.scale) == (1, 0)


def test_dense_to_x_k4minus1_support():
    sx = dense_to_x(dense_state_z(named("k4minus1"))).reduced()
    expect = {
        string_to_mask("1000"): 1,
        string_to_mask("0010"): 1,
        string_to_mask("0101"): 1,
        string_to_mask("1111"): -1,
    }
    assert {m: a for m, a in enumerate(sx.amps) if a} == expect
    assert sx.scale == 2


def test_hadamard_involution():
    rng = random.Random(31)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 9))
        s = dense_state_z(g)
        assert dense_to_x(dense_to_x(s)).reduced() == s.reduced()


def test_norm_is_exact_through_transforms():
    rng = random.Random(32)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 10))
        s = dense_state_z(g)
        assert norm_squared_is_unit(s)
        assert norm_squared_is_unit(dense_to_x(s))


def test_check_stabilizer_generators():
    for name in ("star:4", "cycle:5", "house", "bistar", "k4minus1"):
        g = named(name)
        state = dense_state_z(g)
        for v in range(1, g.n + 1):
            gen = generator(g, v)
            assert check_stabilizer(state, gen)
            flipped = PauliStabilizer(gen.width, -gen.phase, gen.x_set, gen.z_set)
            assert not check_stabilizer(state, flipped)


def test_check_stabilizer_whole_group_small():
    for n in range(1, 6):
        for g in list(all_graphs(n))[:: max(1, n)]:
            state = dense_state_z(g)
            for xi in range(1 << n):
                assert check_stabilizer(state, induced_stabilizer(g, xi))


def test_dense_overlap_examples():
    assert dense_overlap(named("cycle:3"), named("empty:3")) == DyadicReal.zero()
    assert dense_overlap(named("house"), named("house")) == DyadicReal(1, 0)
    assert dense_overlap(named("star:3"), named("empty:3")) == DyadicReal(1, 2)
    with pytest.raises(ValueError):
        dense_overlap(named("empty:3"), named("empty:4"))


def test_dense_overlap_symmetric():
    rng = random.Random(33)
    for _ in range(100):
        n = rng.randrange(1, 9)
        g, h = random_graph(rng, n), random_graph(rng, n)
        assert dense_overlap(g, h) == dense_overlap(h, g)


def test_dense_schmidt_rank_examples():
    assert dense_schmidt_rank(named("house"), Bipartition.from_a(5, [1, 2, 3])) == 2
    assert dense_schmidt_rank(named("empty:4"), Bipartition.from_a(4, [1, 2])) == 1
    assert dense_schmidt_rank(named("bistar"), Bipartition.from_a(5, [1, 2, 3])) == 2


def test_brute_xchains_table_fixtures():
    assert brute_xchains(named("star:3")) == {0, mask_of([2, 3])}
    assert brute_xchains(named("star:4")) == {
        0, mask_of([2, 3]), mask_of([2, 4]), mask_of([3, 4]),
    }
    assert brute_xchains(named("complete:3")) == {0, mask_of([1, 2, 3])}


def test_x_distribution_examples():
    got = x_distribution(named("cycle:3"))
    expect = {
        string_to_mask(b): Fraction(1, 4) for b in ("100", "010", "001", "111")
    }
    assert got == expect
    assert x_distribution(named("empty:3")) == {0: Fraction(1)}
    rng = random.Random(34)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 9))
        assert sum(x_distribution(g).values()) == 1


def test_apply_pauli_composition():
    g = named("house")
    s = dense_state_z(g)
    p1 = induced_stabilizer(g, mask_of([1, 4]))
    p2 = induced_stabilizer(g, mask_of([2, 3, 5]))
    once = apply_pauli(apply_pauli(s, p2), p1)
    both = apply_pauli(s, multiply(g, p1, p2))
    assert once.amps == both.amps


def test_reduced_is_canonical():
    s = DenseState(1, [2, -2], 3)
    assert s.reduced() == DenseState(1, [1, -1], 1)
    assert dense_state_z(named("empty:2")).reduced() == dense_state_z(named("empty:2"))


# ------------------------------------------- rewritten routines vs references


def _reference_graphs(max_exhaustive: int, sampled: range, seed: int):
    """Every graph up to max_exhaustive vertices, then two seeded graphs per n."""
    for n in range(1, max_exhaustive + 1):
        yield from all_graphs(n)
    rng = random.Random(seed)
    for n in sampled:
        for _ in range(2):
            yield random_graph(rng, n)


def test_dense_state_z_matches_per_mask_parities():
    for g in _reference_graphs(5, range(6, 15), seed=41):
        s = dense_state_z(g)
        assert s.amps == [stabilizer_parity(g, m) for m in range(1 << g.n)]
        assert s.scale == g.n


def test_brute_xchains_matches_per_mask_scan():
    for g in _reference_graphs(5, range(6, 13), seed=42):
        want = {m for m in range(1 << g.n) if correlation_index(g, m) == 0}
        assert brute_xchains(g) == want


def test_dense_schmidt_rank_matches_full_matrix_rank():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randrange(2, 11)
        g = random_graph(rng, n)
        amps = dense_state_z(g).amps
        a = random_bipartition_mask(rng, n)
        full = (1 << n) - 1
        for part in (Bipartition(n, a, full & ~a), Bipartition(n, full & ~a, a)):
            pos_a, pos_b = part.a_positions(), part.b_positions()
            mat = [
                [amps[scatter(ia, pos_a) | scatter(ib, pos_b)] for ib in range(1 << len(pos_b))]
                for ia in range(1 << len(pos_a))
            ]
            assert dense_schmidt_rank(g, part) == _bareiss_rank(mat)


def _halving_reduced(s: DenseState) -> DenseState:
    amps, scale = list(s.amps), s.scale
    while scale >= 2 and all(a % 2 == 0 for a in amps):
        amps = [a // 2 for a in amps]
        scale -= 2
    return DenseState(s.n, amps, scale)


def test_reduced_matches_halving_loop():
    rng = random.Random(44)
    cases = [DenseState(2, [0, 0, 0, 0], scale) for scale in range(-1, 8)]
    for _ in range(300):
        n = rng.randrange(0, 5)
        power = 1 << rng.randrange(0, 6)
        amps = [power * rng.randrange(-4, 5) for _ in range(1 << n)]
        if rng.random() < 0.2:
            amps[rng.randrange(len(amps))] = 2 * rng.randrange(-3, 3) + 1
        cases.append(DenseState(n, amps, rng.randrange(0, 12)))
    assert any(c.scale in (0, 1) and any(c.amps) for c in cases)
    for s in cases:
        assert s.reduced() == _halving_reduced(s)


def test_state_overlap_of_differently_scaled_states():
    g, h = named("house"), named("star:5")
    want = dense_overlap(g, h)
    assert state_overlap(dense_state_z(g), dense_to_x(dense_to_x(dense_state_z(h)))) == want
    assert want == state_overlap(dense_state_z(g).reduced(), dense_state_z(h))
