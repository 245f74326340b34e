"""The verify harness: every symbolic result against the dense oracle.

The oracle side is the packed +-1 state, checked at the expansion's own
terms, where Parseval rules out any other.  The graph is factorized once
for every symbolic check, and the overlap factorizes its symmetric
difference.  Check (e) reads the X-measurement support off that
factorization: the 2^|K| possible outcomes m are equally likely, and
m + x_Gamma has even overlap with every X-chain generator, since
im A = ker A^perp.
"""

from __future__ import annotations

import random

from . import bias, gf2, oracle, schmidt, xchains
from .graphs import Bipartition, Graph, all_graphs, emit_graph6, random_graph


def _verify_one(g: Graph, rng: random.Random, mismatches: list[str], notes: list[str]):
    tag = f"n={g.n} g6={emit_graph6(g)}"
    xd = xchains.factorize(g)
    # (a) symbolic X-chain group vs brute-force scan
    if set(gf2.span(xd.gamma.rows)) != oracle.brute_xchains(g):
        mismatches.append(f"xchain-group {tag}")
    # (b) X-basis expansion vs the packed X amplitudes at its terms, global
    # sign included; Parseval (squares summing to 4^n) rules out any other term
    e = xchains.x_representation(g, xd)
    amps = oracle.x_amplitudes(g, e.terms)
    sx = oracle.DenseState(g.n, list(amps.values()), 2 * g.n).reduced()
    parseval = sum(a * a for a in amps.values()) == 1 << 2 * g.n
    dense_terms = {m: a for m, a in zip(amps, sx.amps) if a} if parseval else {}
    if not parseval or sx.scale != e.half_log_norm or dense_terms != e.terms:
        mismatches.append(f"x-representation {tag}")
    # (c) overlap vs dense inner product, random partner
    h = random_graph(rng, g.n)
    if bias.overlap(g, h) != oracle.dense_overlap(g, h):
        mismatches.append(f"overlap {tag}")
    # (d) Schmidt rank vs dense reshaped rank, random bipartitions
    if g.n >= 2:
        for _ in range(3):
            a = rng.randrange(1, (1 << g.n) - 1)
            part = Bipartition(g.n, a, ((1 << g.n) - 1) & ~a)
            pg = schmidt.partition_groups(g, part, xd)
            if pg.k_simb.dim:
                notes.append(f"nonempty detached subgroup {tag} A={a:b}")
            if (1 << pg.k_harpoon.dim) != oracle.dense_schmidt_rank(g, part):
                mismatches.append(f"schmidt-rank {tag} A={a:b}")
    # (e) X-measurement support vs the X-chain parity rule; with no verified
    # amplitudes there is no scale to compare against, so it fails too
    k, x_gamma = len(xd.kappa), xd.x_gamma
    if (
        len(dense_terms) != 1 << k
        or any(a * a << k != 1 << sx.scale for a in dense_terms.values())
        or any(gf2.dot(m ^ x_gamma, row) for m in dense_terms for row in xd.gamma.rows)
    ):
        mismatches.append(f"measurement-support {tag}")


def run_verification(max_n: int = 8, samples: int = 30, seed: int = 0):
    """Oracle-equivalence sweep; returns (graph count, mismatches, notes).

    Exhaustive over all graphs for n <= 5, seeded random samples beyond.
    Arguments are checked before any graph is, so a sweep the dense oracle
    cannot finish is refused at once.
    """
    if not 1 <= max_n <= oracle.MAX_DENSE_N:
        raise ValueError(f"max_n {max_n} out of range 1..{oracle.MAX_DENSE_N}")
    if samples < 0:
        raise ValueError(f"samples {samples} is negative")
    rng = random.Random(seed)
    mismatches: list[str] = []
    notes: list[str] = []
    count = 0
    for n in range(1, min(max_n, 5) + 1):
        for g in all_graphs(n):
            _verify_one(g, rng, mismatches, notes)
            count += 1
    for n in range(6, max_n + 1):
        for _ in range(samples):
            _verify_one(random_graph(rng, n), rng, mismatches, notes)
            count += 1
    return count, mismatches, notes
