"""The packed ±1 oracle against the list oracle it replaced.

Each kernel is compared with tests/reference.py (sums of amplitude
products, Bareiss rank of the reshaped amplitude matrix) or with the
list Hadamard transform: exhaustively on small graphs, then on seeded
graphs up to the oracle's cap.
"""

import ast
import random
from pathlib import Path

import pytest

from helpers import all_graphs, random_bipartition_mask, random_graph
from reference import state_overlap, state_schmidt_rank
from graphstates import oracle
from graphstates.graphs import Bipartition
from graphstates.oracle import (
    dense_overlap,
    dense_schmidt_rank,
    dense_state_z,
    dense_to_x,
    x_amplitudes,
)


def test_dense_schmidt_rank_matches_reference_on_every_cut_to_n5():
    cases = 0
    for n in range(1, 6):
        full = (1 << n) - 1
        parts = [Bipartition(n, a, full & ~a) for a in range(1, full)]
        for g in all_graphs(n):
            s = dense_state_z(g)
            for part in parts:
                assert dense_schmidt_rank(g, part) == state_schmidt_rank(s, part)
                cases += 1
    assert cases == 31668


def test_dense_schmidt_rank_matches_reference_on_seeded_cuts_to_n14():
    rng = random.Random(51)
    for n in range(6, 15):
        for _ in range(3):
            g = random_graph(rng, n)
            s = dense_state_z(g)
            a = random_bipartition_mask(rng, n)
            full = (1 << n) - 1
            for part in (Bipartition(n, a, full & ~a), Bipartition(n, full & ~a, a)):
                assert dense_schmidt_rank(g, part) == state_schmidt_rank(s, part)


def test_dense_overlap_matches_reference_on_every_pair_to_n3_and_seeded_to_n14():
    pairs = [(g, h) for n in range(1, 4) for g in all_graphs(n) for h in all_graphs(n)]
    assert len(pairs) == 1 + 4 + 64
    rng = random.Random(52)
    pairs += [(random_graph(rng, n), random_graph(rng, n)) for n in range(4, 15) for _ in range(4)]
    for g, h in pairs:
        assert dense_overlap(g, h) == state_overlap(dense_state_z(g), dense_state_z(h))


def test_x_amplitudes_match_hadamard_transform_at_every_mask():
    graphs = [g for n in range(1, 6) for g in all_graphs(n)]
    rng = random.Random(53)
    graphs += [random_graph(rng, n) for n in range(6, 13) for _ in range(2)]
    for g in graphs:
        sx = dense_to_x(dense_state_z(g))
        assert sx.scale == 2 * g.n
        assert x_amplitudes(g, range(1 << g.n)) == dict(enumerate(sx.amps))


def test_failed_certificates_raise_instead_of_guessing(monkeypatch):
    n3 = random_graph(random.Random(54), 3)
    # rows 0000 and 0010 along A = {1}: equal neither up to sign nor orthogonal
    monkeypatch.setattr(oracle, "_packed_state", lambda adj: 0b0010 << 4)
    with pytest.raises(AssertionError, match="not orthogonal"):
        dense_schmidt_rank(n3, Bipartition.from_a(3, [1]))
    # one differing sign bit of eight: overlap numerator 8 - 2 = 6
    monkeypatch.setattr(oracle, "_packed_state", lambda adj: int(adj is n3.adj))
    with pytest.raises(AssertionError, match="not a power of two"):
        dense_overlap(n3, random_graph(random.Random(55), 3))


def test_oracle_imports_nothing_from_the_symbolic_modules():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    parts = {p for name in imported for p in name.split(".")}
    assert {"bias", "graphs"} <= parts
    assert not parts & {"gf2", "xchains", "schmidt", "localize", "stab"}
