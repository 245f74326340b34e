"""Entanglement localization with X-measurements and repetition decoding.

When both A-side factor subgroups are trivial, every A-side Schmidt
vector is a single X-basis string; those strings form a classical code
whose nearest-codeword decoding corrects Z-errors in Alice's outcomes
(a Z-error flips the measured X-outcome bit on its vertex).
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import gf2
from .graphs import Bipartition, Graph
from .schmidt import PartitionGroups, partition_groups, schmidt_vectors
from .stab import correlation_index
from .xchains import EXPANSION_LIMIT, XBasisExpansion


class DecodingTie(ValueError):
    """Two codewords are equidistant from the observed word."""


class LocalizationCode(NamedTuple):
    """Schmidt-basis strings on A, indexed by their crossing labels."""

    groups: PartitionGroups  # the A|B split the codewords are read from
    qubits_a: tuple[int, ...]
    codewords: tuple[tuple[int, int], ...]  # (label, word on |A| bits)
    distance: int


class LocalizationReport(NamedTuple):
    ideal_label: int
    ideal_word: int
    noisy: int
    decoded_label: int
    corrected: int
    flips: int
    success: bool
    bob_state: XBasisExpansion


def extract_code(g: Graph, part: Bipartition) -> LocalizationCode:
    """Codewords of the A-side Schmidt strings, with their Hamming distance.

    Requires every A-side Schmidt vector to be a single X-basis string.
    The words are x_Gamma + A xi restricted to A, an affine code, so the
    spans of the crossing labels and of their differences A xi line up as
    the (label, word) pairs; the least pairwise distance is the least weight
    of a nonzero difference, or |A| + 1 for one codeword.  The 2^k words,
    k the cut rank, are refused before any span when k > EXPANSION_LIMIT.
    """
    pg = partition_groups(g, part)
    for name, basis in (("inside-A subgroup", pg.k_aa), ("detached-A subgroup", pg.k_simb)):
        if basis.dim:
            raise ValueError(
                f"A-side Schmidt vectors are superpositions: {name} is nontrivial "
                f"({[gf2.vertices_of(r) for r in basis.rows]})"
            )
    k = pg.k_harpoon.dim
    if k > EXPANSION_LIMIT:
        raise ValueError(
            f"localization code with cut rank k={k} has 2^{k} codewords; "
            f"capped at 2^{EXPANSION_LIMIT}"
        )
    pos_a = part.a_positions()
    rows = pg.k_harpoon.rows
    diffs = gf2.span([gf2.restrict(correlation_index(g, r), pos_a) for r in rows])
    base = gf2.restrict(pg.xdata.x_gamma, pos_a)
    words = sorted(zip(gf2.span(rows), [base ^ d for d in diffs]))
    distance = min((d.bit_count() for d in diffs[1:]), default=len(pos_a) + 1)
    if distance == 0:
        raise AssertionError("codewords are not pairwise distinct")
    return LocalizationCode(pg, gf2.vertices_of(part.a), tuple(words), distance)


def decode(code: LocalizationCode, observed: int) -> tuple[int, int, int]:
    """Nearest codeword by Hamming distance: (label, corrected word, flips).

    Raises DecodingTie when two codewords are equidistant instead of
    guessing.
    """
    if observed >> len(code.qubits_a):
        raise ValueError("observed word has more bits than |A|")
    ranked = sorted(
        ((observed ^ word).bit_count(), label, word)
        for label, word in code.codewords
    )
    if len(ranked) > 1 and ranked[0][0] == ranked[1][0]:
        raise DecodingTie(
            f"observed {gf2.mask_to_string(observed, len(code.qubits_a))} is "
            f"equidistant from two codewords"
        )
    flips, label, word = ranked[0]
    return label, word, flips


def simulate(
    g: Graph, part: Bipartition, error_positions: int, seed: int
) -> LocalizationReport:
    """One seeded localization round with Z-errors at the given A vertices.

    Samples an ideal outcome uniformly, flips the outcome bit on each
    error vertex, decodes, and reports Bob's Schmidt vector for the
    decoded label.
    """
    if error_positions & ~part.a:
        raise ValueError("error positions must lie inside part A")
    code = extract_code(g, part)
    rng = random.Random(seed)
    ideal_label, ideal_word = code.codewords[rng.randrange(len(code.codewords))]
    noisy = ideal_word ^ gf2.restrict(error_positions, part.a_positions())
    decoded_label, corrected, flips = decode(code, noisy)
    _, _, bob = schmidt_vectors(g, code.groups, decoded_label)
    return LocalizationReport(
        ideal_label=ideal_label,
        ideal_word=ideal_word,
        noisy=noisy,
        decoded_label=decoded_label,
        corrected=corrected,
        flips=flips,
        success=decoded_label == ideal_label,
        bob_state=bob,
    )
