"""Stabilizer formalism: normal forms, parities, sign-correct products."""

import random
from itertools import product

import pytest

from helpers import all_graphs, random_graph
from reference import (
    PauliStabilizer,
    check_stabilizer,
    cut_parity,
    generator,
    induced_stabilizer,
    multiply,
    string_to_mask,
)
from graphstates.gf2 import mask_of
from graphstates.graphs import named
from graphstates.oracle import dense_state_z
from graphstates.stab import correlation_index, stabilizer_parity


def test_generator_examples():
    s3 = named("star:3")
    assert generator(s3, 2) == PauliStabilizer(3, 1, mask_of([2]), mask_of([1]))
    assert generator(named("empty:3"), 1) == PauliStabilizer(3, 1, mask_of([1]), 0)
    assert generator(named("cycle:3"), 1) == PauliStabilizer(3, 1, mask_of([1]), mask_of([2, 3]))
    with pytest.raises(ValueError):
        generator(s3, 4)


def test_correlation_index_examples():
    assert correlation_index(named("star:3"), mask_of([1, 2, 3])) == mask_of([2, 3])
    assert correlation_index(named("house"), 0) == 0
    assert correlation_index(named("house"), mask_of([2, 3, 4])) == mask_of([5])


def test_stabilizer_parity_examples():
    assert stabilizer_parity(named("star:3"), mask_of([1, 2])) == -1
    assert stabilizer_parity(named("star:3"), 0) == 1
    assert stabilizer_parity(named("cycle:3"), mask_of([1, 2, 3])) == -1


def test_induced_stabilizer_examples():
    got = induced_stabilizer(named("star:3"), mask_of([1, 2]))
    assert got == PauliStabilizer(3, -1, mask_of([1, 2]), mask_of([1, 2, 3]))
    assert induced_stabilizer(named("star:3"), 0) == PauliStabilizer(3, 1, 0, 0)
    got = induced_stabilizer(named("k4minus1"), mask_of([2]))
    assert got.phase == 1
    assert got.z_set == string_to_mask("1010")


def test_cut_parity_examples():
    assert cut_parity(named("empty:4"), mask_of([1]), mask_of([3])) == 0
    assert cut_parity(named("bistar"), mask_of([1]), mask_of([4])) == 1


def test_cut_parity_symmetric_bilinear():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randrange(1, 9)
        g = random_graph(rng, n)
        a, b, c = (rng.getrandbits(n) for _ in range(3))
        assert cut_parity(g, a, b) == cut_parity(g, b, a)
        assert cut_parity(g, a ^ b, c) == cut_parity(g, a, c) ^ cut_parity(g, b, c)


def test_parity_cut_identity_exhaustive():
    # pi(x1) pi(x2) pi(x1 ^ x2) == (-1)^cut for every subset pair
    graphs = [g for n in range(1, 5) for g in all_graphs(n)]
    rng = random.Random(22)
    graphs += [random_graph(rng, n) for n in (5, 6) for _ in range(20)]
    graphs += [named("house"), named("bistar"), named("k4minus1"), named("cycle:6")]
    for g in graphs:
        for x1, x2 in product(range(1 << g.n), repeat=2):
            lhs = (
                stabilizer_parity(g, x1)
                * stabilizer_parity(g, x2)
                * stabilizer_parity(g, x1 ^ x2)
            )
            assert lhs == (-1 if cut_parity(g, x1, x2) else 1)


def test_multiply_examples():
    s3 = named("star:3")
    s = induced_stabilizer(s3, mask_of([1, 2]))
    assert multiply(s3, s, s) == PauliStabilizer(3, 1, 0, 0)
    got = multiply(s3, induced_stabilizer(s3, mask_of([2])), induced_stabilizer(s3, mask_of([3])))
    assert got == PauliStabilizer(3, 1, mask_of([2, 3]), 0)
    assert got == induced_stabilizer(s3, mask_of([2, 3]))
    with pytest.raises(ValueError):
        multiply(s3, s, PauliStabilizer(4, 1, 0, 0))


def test_multiply_is_induction_homomorphism():
    # exhaustive over all graphs and all subset pairs for n <= 5
    for n in range(1, 6):
        for g in all_graphs(n):
            stabs = [induced_stabilizer(g, xi) for xi in range(1 << n)]
            for x1, x2 in product(range(1 << n), repeat=2):
                assert multiply(g, stabs[x1], stabs[x2]) == stabs[x1 ^ x2]
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randrange(5, 11)
        g = random_graph(rng, n)
        x1, x2 = rng.getrandbits(n), rng.getrandbits(n)
        got = multiply(g, induced_stabilizer(g, x1), induced_stabilizer(g, x2))
        assert got == induced_stabilizer(g, x1 ^ x2)


def test_phases_stay_real():
    # x_set and its correlation index always share an even vertex count,
    # so X-then-Z normal forms never pick up factors of i
    rng = random.Random(24)
    for _ in range(300):
        n = rng.randrange(1, 11)
        g = random_graph(rng, n)
        xi = rng.getrandbits(n)
        assert (xi & correlation_index(g, xi)).bit_count() % 2 == 0


def test_all_induced_stabilizers_fix_the_dense_state():
    for n in range(1, 7):
        for g in ([named("house"), named("bistar")] if n == 5 else []) + (
            list(all_graphs(n)) if n <= 4 else []
        ):
            state = dense_state_z(g)
            for xi in range(1 << g.n):
                assert check_stabilizer(state, induced_stabilizer(g, xi))
    rng = random.Random(25)
    for _ in range(20):
        n = rng.randrange(5, 9)
        g = random_graph(rng, n)
        state = dense_state_z(g)
        for _ in range(25):
            assert check_stabilizer(state, induced_stabilizer(g, rng.getrandbits(n)))
