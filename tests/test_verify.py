"""The verify harness factorizes each graph once and hands the result on."""

import random

from helpers import gnp_graph, random_bipartition_mask
from graphstates import bias, schmidt, xchains
from graphstates.graphs import Bipartition
from graphstates.verify import run_verification


def test_verify_factorizes_each_graph_and_its_overlap_partner_once(monkeypatch):
    calls = []
    real = xchains.factorize

    def counted(g):
        calls.append(g)
        return real(g)

    # each module binds its own name for factorize
    for module in (xchains, schmidt, bias):
        monkeypatch.setattr(module, "factorize", counted)
    count, mismatches, _ = run_verification(4, 0, 0)
    assert (count, mismatches) == (75, [])
    # one for the graph, one for the symmetric difference inside overlap
    assert len(calls) == 2 * count == 150


def test_passed_factorization_gives_the_same_results():
    rng = random.Random(32)
    supports = 0
    for n in range(1, 33):
        for p in (0.05, 0.2, 0.5):
            g = gnp_graph(rng, n, p)
            xd = xchains.factorize(g)
            if n >= 2:
                for _ in range(2):
                    a = random_bipartition_mask(rng, n)
                    part = Bipartition(n, a, ((1 << n) - 1) & ~a)
                    assert schmidt.partition_groups(g, part, xd) == schmidt.partition_groups(g, part)
            if len(xd.kappa) <= 12:
                assert xchains.measurement_support(g, xd) == xchains.measurement_support(g)
                supports += 1
    assert supports > 40
