"""The verify harness factorizes each graph once, hands the result on, and
reports a corrupted X-basis vector as a measurement-support mismatch."""

import random

from helpers import gnp_graph, random_bipartition_mask
from reference import measurement_support
from graphstates import bias, oracle, schmidt, xchains
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
                assert measurement_support(g, xd) == measurement_support(g)
                supports += 1
    assert supports > 40


def support_mismatches_with_corrupted_transform(monkeypatch, corrupt):
    """run_verification(4, 0, 0) with each X-basis vector passed through corrupt.

    Returns the number of graphs whose vector corrupt changed and the
    number of measurement-support mismatches reported.
    """
    real = oracle.dense_to_x
    changed = []

    def corrupted(s):
        t = real(s)
        amps = corrupt(list(t.amps))
        changed.append(amps != t.amps)
        return t._replace(amps=amps)

    monkeypatch.setattr(oracle, "dense_to_x", corrupted)
    count, mismatches, _ = run_verification(4, 0, 0)
    assert count == len(changed) == 75
    return sum(changed), sum(m.startswith("measurement-support ") for m in mismatches)


def move_one_amplitude_onto_a_zero(amps):
    if 0 in amps:
        i = next(i for i, a in enumerate(amps) if a)
        amps[amps.index(0)], amps[i] = amps[i], 0
    return amps


def double_one_amplitude(amps):
    i = next(i for i, a in enumerate(amps) if a)
    amps[i] *= 2
    return amps


def test_measurement_support_check_reports_a_moved_amplitude(monkeypatch):
    changed, reported = support_mismatches_with_corrupted_transform(
        monkeypatch, move_one_amplitude_onto_a_zero
    )
    assert 0 < changed < 75
    assert reported == changed


def test_measurement_support_check_reports_a_doubled_amplitude(monkeypatch):
    # the support is unchanged; only the amplitude comparison can see it
    changed, reported = support_mismatches_with_corrupted_transform(
        monkeypatch, double_one_amplitude
    )
    assert reported == changed == 75
