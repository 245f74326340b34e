"""Seeded op lists for the three benchmark workloads.

An op is one CLI argv (always with ``--format json``) plus the facts the
output checks need: the command, the vertex count and the graphs it names.

Inputs on n <= 14 vertices are drawn from the run seed and checked against
the dense oracle.  Inputs on more vertices are drawn by the run seed from a
fixed pool (built from POOL_SEED, independent of the run seed), because
their outputs are checked against the outputs recorded in ``golden.json``.

Random graphs are stratified by |K|, the free-vertex count, which equals
the GF(2) rank of the adjacency matrix.  The cost of ``xchains``, ``bias``
and ``overlap`` grows as 2^|K| and every op with |K| > 20 is refused, so a
fixed |K| profile per (n, density) cell keeps each seed's cost profile and
refusal count the same while the graphs themselves change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DENSE_MAX_N = 14
POOL_SEED = "graphstates-perfbench-pool-v1"
POOL_SIZE = 5  # candidates per slot with n > DENSE_MAX_N

# (n, edge probability) -> (|K|, balanced) targets.  Each target is a common
# profile of its cell, so rejection sampling finds it in a few draws.  A
# balanced graph has zero bias and skips the 2^|K| sign sum, so fixing the
# profiles fixes how many sign sums a pass runs and how many are refused.
F, T = False, True
SCALAR_CELLS = {
    8: {0.1: ((2, F), (4, F), (6, F)), 0.25: ((4, F), (6, F), (6, T), (8, F)),
        0.5: ((6, F), (6, T), (8, F))},
    16: {0.1: ((8, F), (10, F), (12, F), (14, F)), 0.25: ((12, F), (14, F), (14, T), (16, F)),
         0.5: ((14, F), (14, T), (16, F))},
    24: {0.1: ((16, F), (18, F), (20, F), (20, T), (22, F)), 0.25: ((22, F), (22, T), (24, F)),
         0.5: ((22, F), (22, T), (24, F))},
    32: {0.1: ((26, F), (28, F), (28, T), (30, F)), 0.25: ((30, F), (30, T), (32, F)),
         0.5: ((30, F), (30, T), (32, F))},
}
COPIES = 2  # graphs per (n, density, profile)
FAMILIES = ("star", "cycle", "path", "complete", "empty")
FAMILY_OVERLAPS = (("star", "path"), ("cycle", "complete"), ("empty", "cycle"))
SIZES = (8, 16, 24, 32)
SMALL_SIDES = (2, 3, 4, 5, 6)
SCHMIDT_DENSE_SIZES = (7, 8, 9, 10)


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    command: str
    n: int
    graphs: tuple[str, ...]  # graph specs the op names (g6:... or family)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def make_op(command: str, *pairs: tuple[str, str]) -> Op:
    argv = [command]
    graphs = []
    for flag, value in pairs:
        argv += [flag, value]
        if flag in ("--graph", "--graph2"):
            graphs.append(value)
    argv += ["--format", "json"]
    n = spec_n(graphs[0]) if graphs else 0
    return Op(tuple(argv), command, n, tuple(graphs))


# ----------------------------------------------------------- graph helpers


def gf2_rank(rows) -> int:
    """Rank over GF(2) of int-bitmask rows (independent of the program)."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
    return len(pivots)


def xchain_basis(adj: list[int]) -> list[int]:
    """A basis of the GF(2) kernel of a symmetric adjacency (the X-chains)."""
    pivots: dict[int, tuple[int, int]] = {}
    kernel = []
    for i, row in enumerate(adj):
        combo = 1 << i
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = (row, combo)
                break
            prow, pcombo = pivots[low]
            row ^= prow
            combo ^= pcombo
        if not row:
            kernel.append(combo)
    return kernel


def induced_edges(adj: list[int], xi: int) -> int:
    return sum((adj[v] & xi).bit_count() for v in range(len(adj)) if (xi >> v) & 1) // 2


def is_balanced(adj: list[int]) -> bool:
    """Zero bias: some X-chain induces an odd number of edges."""
    return any(induced_edges(adj, x) & 1 for x in xchain_basis(adj))


def gnp(rng: random.Random, n: int, p: float) -> list[int]:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def graph6(adj: list[int]) -> str:
    """graph6 encoding of an adjacency (short form, n <= 62)."""
    n = len(adj)
    bits = [(adj[v] >> u) & 1 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k:k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    return "g6:" + chr(63 + n) + body


def parse_spec(spec: str) -> list[int]:
    """Adjacency of a g6: spec or one of the named families used here."""
    if spec.startswith("g6:"):
        s = spec[3:]
        n = ord(s[0]) - 63
        bits = []
        for ch in s[1:]:
            val = ord(ch) - 63
            bits.extend((val >> (5 - k)) & 1 for k in range(6))
        adj = [0] * n
        idx = 0
        for v in range(1, n):
            for u in range(v):
                if bits[idx]:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                idx += 1
        return adj
    family, _, arg = spec.partition(":")
    n = int(arg)
    edges = {
        "empty": [],
        "star": [(0, v) for v in range(1, n)],
        "path": [(v, v + 1) for v in range(n - 1)],
        "cycle": [(v, (v + 1) % n) for v in range(n)],
        "complete": [(u, v) for u in range(n) for v in range(u + 1, n)],
    }[family]
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def spec_n(spec: str) -> int:
    if spec.startswith("g6:"):
        return ord(spec[3]) - 63
    return int(spec.partition(":")[2])


def has_profile(adj: list[int], rank: int, balanced: bool) -> bool:
    return gf2_rank(adj) == rank and is_balanced(adj) == balanced


def gnp_with_profile(rng: random.Random, n: int, p: float, rank: int, balanced: bool) -> list[int]:
    while True:
        adj = gnp(rng, n, p)
        if has_profile(adj, rank, balanced):
            return adj


def bipartite(rng: random.Random, n: int, s: int, neighborhoods) -> tuple[list[int], list[int]]:
    """Relabeled bipartite graph; returns (adjacency, small-side vertices, 1-indexed)."""
    perm = list(range(n))
    rng.shuffle(perm)
    adj = [0] * n
    for i, nb in enumerate(neighborhoods):
        for j in range(n - s):
            if (nb >> j) & 1:
                u, v = perm[i], perm[s + j]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj, sorted(perm[i] + 1 for i in range(s))


def full_rank_bipartite(rng: random.Random, n: int, s: int):
    """Random bipartite graph whose small side s has independent neighborhoods.

    Then |K| = 2s, so the X-basis expansion has exactly 4^s terms.
    """
    while True:
        nbs = [rng.getrandbits(n - s) for _ in range(s)]
        if gf2_rank(nbs) == s:
            return bipartite(rng, n, s, nbs)


def code_distance(coeffs: list[int], r: int) -> int:
    """Minimum weight of the nonzero words of the row space of [coeffs].

    With A-vertex v adjacent to the XOR of the base sets selected by
    coeffs[v], the X-outcomes on A form this code: the dual of the
    A-subsets with an even neighborhood.
    """
    best = len(coeffs) + 1
    for y in range(1, 1 << r):
        word = sum(1 for c in coeffs if (c & y).bit_count() & 1)
        if word:
            best = min(best, word)
    return best


def localization_instance(rng: random.Random, n: int, s: int):
    """Bipartite graph whose A side carries a repetition-style code.

    Returns (adjacency, A vertices, error vertices) with the errors inside
    the correction radius of the code, so decoding is never a tie.
    """
    r = 1 if s <= 4 else 2
    while True:
        bases = [rng.getrandbits(n - s) for _ in range(r)]
        if gf2_rank(bases) == r:
            break
    coeffs = [rng.randrange(1, 1 << r) for _ in range(s)]
    d = code_distance(coeffs, r)
    nbs = []
    for c in coeffs:
        nb = 0
        for i in range(r):
            if (c >> i) & 1:
                nb ^= bases[i]
        nbs.append(nb)
    adj, part_a = bipartite(rng, n, s, nbs)
    radius = (d - 1) // 2
    errors = sorted(rng.sample(part_a, radius)) if radius else []
    return adj, part_a, errors


def csv(vertices) -> str:
    return ",".join(map(str, vertices))


# --------------------------------------------------------------- workloads


def scalars_slots():
    """Input slots of the scalars workload: (n, build(rng) -> ops)."""
    slots = []
    for n in SIZES:
        for fam in FAMILIES:
            spec = f"{fam}:{n}"
            slots.append((n, lambda rng, spec=spec: [
                make_op("xchains", ("--graph", spec)),
                make_op("bias", ("--graph", spec)),
            ]))
        for f1, f2 in FAMILY_OVERLAPS:
            slots.append((n, lambda rng, g=f"{f1}:{n}", h=f"{f2}:{n}": [
                make_op("overlap", ("--graph", g), ("--graph2", h)),
            ]))
        for p, targets in SCALAR_CELLS[n].items():
            for rank, balanced in targets:
                for _ in range(COPIES):
                    def build(rng, n=n, p=p, rank=rank, balanced=balanced):
                        # overlap(g, h) is the bias of g xor h = d, so d
                        # carries the overlap's profile
                        g = gnp_with_profile(rng, n, p, rank, balanced)
                        d = gnp_with_profile(rng, n, p, rank, balanced)
                        g6, h6 = graph6(g), graph6([a ^ b for a, b in zip(g, d)])
                        return [
                            make_op("xchains", ("--graph", g6)),
                            make_op("bias", ("--graph", g6)),
                            make_op("overlap", ("--graph", g6), ("--graph2", h6)),
                        ]
                    slots.append((n, build))
    return slots


def expansions_slots():
    """Input slots of the expansions workload: (n, build(rng) -> ops)."""
    slots = []
    for n in SIZES:
        for s in SMALL_SIDES:
            if 2 * s > n:
                continue
            # Two copies of the costliest size, three of the others: this
            # puts op_p90_ms inside the s = 5 group rather than on the edge
            # between two groups of very different cost.
            for copy in range(2 if s == 6 else 3):
                def build(rng, n=n, s=s):
                    adj, part_a = full_rank_bipartite(rng, n, s)
                    g = graph6(adj)
                    return [
                        make_op("represent", ("--graph", g)),
                        make_op("schmidt", ("--graph", g), ("--part-a", csv(part_a))),
                    ]
                slots.append((n, build))
                if s >= 3 and copy < 2:
                    def build_loc(rng, n=n, s=s):
                        adj, part_a, errors = localization_instance(rng, n, s)
                        return [make_op(
                            "localize",
                            ("--graph", graph6(adj)),
                            ("--part-a", csv(part_a)),
                            ("--errors", csv(errors)),
                            ("--seed", str(rng.randrange(1 << 16))),
                        )]
                    slots.append((n, build_loc))
    for n in SCHMIDT_DENSE_SIZES:
        for _ in range(5):
            def build_cut(rng, n=n):
                adj = gnp(rng, n, 0.5)
                a = sorted(rng.sample(range(1, n + 1), rng.randrange(1, n)))
                return [make_op("schmidt", ("--graph", graph6(adj)), ("--part-a", csv(a)))]
            slots.append((n, build_cut))
    return slots


def _pool_rng(workload: str, slot: int, candidate: int) -> random.Random:
    return random.Random(f"{POOL_SEED}:{workload}:{slot}:{candidate}")


def ops_from_slots(workload: str, seed: int) -> list[Op]:
    run_rng = random.Random(f"{workload}:{seed}")
    ops = []
    for i, (n, build) in enumerate(SLOTS[workload]()):
        if n > DENSE_MAX_N:
            ops.extend(build(_pool_rng(workload, i, run_rng.randrange(POOL_SIZE))))
        else:
            ops.extend(build(run_rng))
    return ops


def pool_ops(workload: str) -> list[Op]:
    """Every op on more than DENSE_MAX_N vertices that any seed can draw."""
    ops = {}
    for i, (n, build) in enumerate(SLOTS[workload]()):
        if n > DENSE_MAX_N:
            for c in range(POOL_SIZE):
                for op in build(_pool_rng(workload, i, c)):
                    ops.setdefault(op.key, op)
    return list(ops.values())


SLOTS = {"scalars": scalars_slots, "expansions": expansions_slots}


def sweep_ops(seed: int) -> list[Op]:
    return [
        make_op("verify", ("--max-n", "10"), ("--samples", "100"), ("--seed", str(seed))),
        make_op("balanced", ("--max-n", "5")),
    ]


def workload_ops(name: str, seed: int) -> list[Op]:
    if name == "sweep":
        return sweep_ops(seed)
    return ops_from_slots(name, seed)
