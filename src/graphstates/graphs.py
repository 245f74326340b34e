"""Graph model over a GF(2) adjacency, named constructors, parsing.

Vertices are 1-indexed everywhere in the API.  Adjacency rows are
bitmasks: bit j-1 of adj[v-1] is 1 iff vertices v and j are adjacent.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import combinations
from typing import Iterator

from . import gf2

MAX_VERTICES = 32


class Graph(namedtuple("Graph", "n adj")):
    """Simple undirected graph: vertex count plus adjacency bitmask rows."""

    __slots__ = ()

    def __new__(cls, n: int, adj: tuple[int, ...]):
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} out of range 1..{MAX_VERTICES}")
        if len(adj) != n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << n) - 1
        for v in range(n):
            row = adj[v]
            if row & ~full:
                raise ValueError("adjacency bits outside vertex range")
            if (row >> v) & 1:
                raise ValueError(f"self-loop on vertex {v + 1}")
            for u in range(n):
                if ((row >> u) & 1) != ((adj[u] >> v) & 1):
                    raise ValueError("adjacency is not symmetric")
        return tuple.__new__(cls, (n, adj))

    def edges(self) -> tuple[tuple[int, int], ...]:
        n, adj = self.n, self.adj
        out = []
        for v in range(1, n + 1):
            row = adj[v - 1]
            for u in range(v + 1, n + 1):
                if (row >> (u - 1)) & 1:
                    out.append((v, u))
        return tuple(out)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2


class Bipartition(namedtuple("Bipartition", "n a b")):
    """Split of the vertex set into two nonempty disjoint halves A and B."""

    __slots__ = ()

    def __new__(cls, n: int, a: int, b: int):
        if a & b:
            raise ValueError("parts overlap")
        if (a | b) != (1 << n) - 1:
            raise ValueError("parts do not cover the vertex set")
        if a == 0 or b == 0:
            raise ValueError("both parts must be nonempty")
        return tuple.__new__(cls, (n, a, b))

    @classmethod
    def from_a(cls, n: int, a_vertices) -> "Bipartition":
        a = gf2.mask_of(a_vertices)
        full = (1 << n) - 1
        if a & ~full:
            raise ValueError("part A contains out-of-range vertices")
        return cls(n, a, full & ~a)

    def a_positions(self) -> list[int]:
        return [v - 1 for v in gf2.vertices_of(self.a)]

    def b_positions(self) -> list[int]:
        return [v - 1 for v in gf2.vertices_of(self.b)]


def from_edges(n: int, edges) -> Graph:
    """Build a graph from 1-indexed edge pairs; duplicates collapse."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} out of range 1..{MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) rejected")
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return Graph(n, tuple(adj))


_FIXED_GRAPHS = {
    # complete graph on 4 vertices with the edge {2,4} deleted
    "k4minus1": (4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]),
    # triangle 1-2-3 on top of the 4-cycle 2-4-5-3
    "house": (5, [(1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]),
    # complete bipartite graph on parts {1,2,3} and {4,5}
    "bistar": (5, [(1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)]),
}


# family -> (fewest vertices it is defined on, its edge list on n vertices)
_FAMILIES = {
    "empty": (1, lambda n: []),
    "star": (2, lambda n: [(1, v) for v in range(2, n + 1)]),
    "path": (1, lambda n: [(v, v + 1) for v in range(1, n)]),
    "cycle": (3, lambda n: [(v, v + 1) for v in range(1, n)] + [(n, 1)]),
    "complete": (1, lambda n: combinations(range(1, n + 1), 2)),
}


def named(spec: str) -> Graph:
    """Construct one of the named graph families, e.g. 'star:4' or 'house'.

    Families: star:n (center 1), cycle:n, complete:n, path:n, empty:n,
    and the fixed graphs k4minus1, house, bistar. The vertex count is
    checked before any edge list is built.
    """
    if spec in _FIXED_GRAPHS:
        n, edges = _FIXED_GRAPHS[spec]
        return from_edges(n, edges)
    if ":" not in spec:
        raise ValueError(f"unknown graph name {spec!r}")
    family, _, arg = spec.partition(":")
    try:
        n = int(arg)
    except ValueError:
        raise ValueError(f"bad vertex count in {spec!r}") from None
    if family not in _FAMILIES:
        raise ValueError(f"unknown graph family {family!r}")
    least, edges = _FAMILIES[family]
    if least > 1 and n < least:
        raise ValueError(f"{family} graphs need at least {least} vertices")
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} out of range 1..{MAX_VERTICES}")
    return from_edges(n, edges(n))


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices, 2^C(n,2) of them.

    Graph number m has the edges {u,v} (u < v, in lexicographic order)
    whose index is a set bit of m.
    """
    pairs = list(combinations(range(1, n + 1), 2))
    for m in range(1 << len(pairs)):
        yield from_edges(n, [e for k, e in enumerate(pairs) if (m >> k) & 1])


def random_graph(rng: random.Random, n: int) -> Graph:
    """Random labeled graph: one rng.getrandbits(1) per pair u < v, in lexicographic order."""
    return from_edges(n, [e for e in combinations(range(1, n + 1), 2) if rng.getrandbits(1)])


def graph_symmetric_difference(g: Graph, h: Graph) -> Graph:
    """Graph whose edge set is the symmetric difference of the inputs."""
    if g.n != h.n:
        raise ValueError("graphs have different vertex counts")
    # a list, since tuple(generator) resizes its tuple, which then piles up in CPython's free lists
    return Graph(g.n, tuple([a ^ b for a, b in zip(g.adj, h.adj)]))


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: first line n, then 'u v' lines, '#' comments."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"bad vertex count line {lines[0]!r}") from None
    edges = []
    for line in lines[1:]:
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise ValueError(f"bad edge line {line!r}") from None
        edges.append((u, v))
    return from_edges(n, edges)


def parse_graph6(s: str) -> Graph:
    """Decode a graph6 string (short form, n <= 32)."""
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    head = ord(s[0])
    if head == 126:
        raise ValueError("long-form graph6 sizes are not supported (n > 62)")
    if not 63 <= head <= 126:
        raise ValueError(f"malformed graph6 header {s[0]!r}")
    n = head - 63
    if n < 1 or n > MAX_VERTICES:
        raise ValueError(f"graph6 vertex count {n} out of range 1..{MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    body = s[1:]
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise ValueError(f"graph6 payload has {len(body)} chars, expected {expect}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise ValueError(f"malformed graph6 payload character {ch!r}")
        bits.extend((val >> (5 - k)) & 1 for k in range(6))
    if any(bits[nbits:]):
        raise ValueError("nonzero padding bits in graph6 payload")
    edges = []
    idx = 0
    for v in range(2, n + 1):
        for u in range(1, v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return from_edges(n, edges)


def emit_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (short form)."""
    bits = []
    for v in range(2, g.n + 1):
        row = g.adj[v - 1]
        for u in range(1, v):
            bits.append((row >> (u - 1)) & 1)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + g.n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        out.append(chr(63 + val))
    return "".join(out)
