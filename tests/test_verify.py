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


def support_mismatches_with_corrupted_amplitudes(monkeypatch, corrupt):
    """run_verification(4, 0, 0) with each graph's X amplitudes passed through corrupt.

    corrupt gets the packed oracle's map {claimed term: amplitude} and the
    number 2^n of all outcomes, and returns a map.  Returns the number of
    graphs whose map corrupt changed and the number of measurement-support
    mismatches reported.
    """
    real = oracle.x_amplitudes
    changed = []

    def corrupted(g, masks):
        amps = real(g, masks)
        bad = corrupt(dict(amps), 1 << g.n)
        changed.append(bad != amps)
        return bad

    monkeypatch.setattr(oracle, "x_amplitudes", corrupted)
    count, mismatches, _ = run_verification(4, 0, 0)
    assert count == len(changed) == 75
    return sum(changed), sum(m.startswith("measurement-support ") for m in mismatches)


def move_one_amplitude_onto_a_zero(amps, outcomes):
    # the claimed terms are the nonzero amplitudes, so any other outcome is a
    # zero; the values, hence Parseval and the scale, are unchanged
    free = [m for m in range(outcomes) if m not in amps]
    if not free:
        return amps
    first = next(iter(amps))
    return {free[0] if m == first else m: a for m, a in amps.items()}


def double_one_amplitude(amps, outcomes):
    first = next(iter(amps))
    amps[first] *= 2
    return amps


def reshape_five_amplitudes(amps, outcomes):
    # five of sixteen equal magnitudes c become 2c, c/2, c/2, c/2, c/2: the
    # squares still sum to 5c^2, so Parseval, the count and the support hold
    if len(amps) < 16:
        return amps
    for i, m in enumerate(list(amps)[:5]):
        amps[m] = amps[m] * 2 if i == 0 else amps[m] // 2
    return amps


def test_measurement_support_check_reports_a_moved_amplitude(monkeypatch):
    # only the outcome-parity rule of the check can see a moved term
    changed, reported = support_mismatches_with_corrupted_amplitudes(
        monkeypatch, move_one_amplitude_onto_a_zero
    )
    assert 0 < changed < 75
    assert reported == changed


def test_measurement_support_check_reports_a_doubled_amplitude(monkeypatch):
    # the support is unchanged, but the squares no longer sum to 4^n, so the
    # expansion check verifies no amplitude and the support check fails with it
    changed, reported = support_mismatches_with_corrupted_amplitudes(
        monkeypatch, double_one_amplitude
    )
    assert reported == changed == 75


def test_measurement_support_check_reports_unequal_amplitudes(monkeypatch):
    # only the equal-probability rule of the check can see a reshaped vector
    changed, reported = support_mismatches_with_corrupted_amplitudes(
        monkeypatch, reshape_five_amplitudes
    )
    assert 0 < changed < 75
    assert reported == changed
