"""Graph constructors and serialization."""

import random
import re

import pytest

from helpers import all_graphs, random_graph
from reference import emit_edge_list
from graphstates import graphs
from graphstates.graphs import (
    MAX_VERTICES,
    Graph,
    emit_graph6,
    from_edges,
    graph_symmetric_difference,
    named,
    parse_edge_list,
    parse_graph6,
)


def test_from_edges_star3():
    g = from_edges(3, [(1, 2), (1, 3)])
    assert g.adj == (0b110, 0b001, 0b001)
    assert g == named("star:3")


def test_from_edges_empty_and_duplicates():
    assert from_edges(2, []).edge_count() == 0
    g = from_edges(3, [(1, 2), (2, 1)])
    assert g.edges() == ((1, 2),)


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        from_edges(3, [(1, 4)])
    with pytest.raises(ValueError):
        from_edges(33, [])


def test_named_fixed_graphs():
    assert named("k4minus1").edges() == ((1, 2), (1, 3), (1, 4), (2, 3), (3, 4))
    assert named("house").edges() == (
        (1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5),
    )
    # complete bipartite on {1,2,3} x {4,5}
    assert named("bistar").edges() == (
        (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5),
    )


def test_named_families():
    assert named("cycle:4").edges() == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert named("path:4").edges() == ((1, 2), (2, 3), (3, 4))
    assert named("complete:4").edge_count() == 6
    assert named("empty:5").edge_count() == 0
    assert named("star:5").adj[0] == 0b11110


def test_named_rejects_unknown():
    for bad in ("frob", "star:x", "cycle:2", "star:1", "triangle:3"):
        with pytest.raises(ValueError):
            named(bad)


@pytest.mark.parametrize("family", ["complete", "path", "star", "cycle"])
def test_named_checks_vertex_count_before_building_edges(monkeypatch, family):
    def never(*args):
        raise AssertionError("edge list built for an out-of-range vertex count")

    monkeypatch.setattr(graphs, "combinations", never)
    monkeypatch.setattr(graphs, "from_edges", never)
    n = MAX_VERTICES + 1
    with pytest.raises(ValueError) as exc:
        named(f"{family}:{n}")
    assert str(exc.value) == f"vertex count {n} out of range 1..{MAX_VERTICES}"


def test_symmetric_difference_examples():
    c3 = named("cycle:3")
    assert graph_symmetric_difference(c3, c3) == named("empty:3")
    assert graph_symmetric_difference(c3, named("empty:3")) == c3
    got = graph_symmetric_difference(named("complete:3"), named("path:3"))
    assert got.edges() == ((1, 3),)
    with pytest.raises(ValueError):
        graph_symmetric_difference(c3, named("empty:4"))


def test_symmetric_difference_group_laws():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randrange(1, 9)
        g, h, k = (random_graph(rng, n) for _ in range(3))
        assert graph_symmetric_difference(g, h) == graph_symmetric_difference(h, g)
        assert graph_symmetric_difference(
            graph_symmetric_difference(g, h), k
        ) == graph_symmetric_difference(g, graph_symmetric_difference(h, k))
        assert graph_symmetric_difference(g, named(f"empty:{n}")) == g


def test_graph6_fixed_strings():
    assert emit_graph6(named("empty:3")) == "B?"
    assert parse_graph6("B?") == named("empty:3")
    assert emit_graph6(named("complete:3")) == "Bw"
    assert parse_graph6(">>graph6<<Bw") == named("complete:3")


def test_graph6_roundtrip_random():
    rng = random.Random(4)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(1, 11))
        assert parse_graph6(emit_graph6(g)) == g


def test_graph6_rejects_malformed():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("B")  # truncated payload
    with pytest.raises(ValueError):
        parse_graph6("\x1f??")  # header below printable range
    with pytest.raises(ValueError):
        parse_graph6("~??")  # long form


@pytest.mark.parametrize("n", range(1, MAX_VERTICES + 1))
def test_graph6_roundtrip_every_size(n):
    rng = random.Random(n)
    for g in (named(f"empty:{n}"), named(f"complete:{n}"), random_graph(rng, n)):
        assert parse_graph6(emit_graph6(g)) == g


@pytest.mark.parametrize("text, message", [
    ("", "empty graph6 string"),
    (">>graph6<<", "empty graph6 string"),
    ("B", "graph6 payload has 0 chars, expected 1"),
    ("Bww", "graph6 payload has 2 chars, expected 1"),
    ("B\x7f", "malformed graph6 payload character '\\x7f'"),
    ("B ", "malformed graph6 payload character ' '"),
    ("A@", "nonzero padding bits in graph6 payload"),
    ("B@", "nonzero padding bits in graph6 payload"),
    ("`" + "?" * 88, "graph6 vertex count 33 out of range 1..32"),
    ("?", "graph6 vertex count 0 out of range 1..32"),
    ("\x1f??", "malformed graph6 header '\\x1f'"),
    ("~??", "long-form graph6 sizes are not supported (n > 62)"),
])
def test_graph6_error_messages(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_graph6(text)


def test_edge_list_roundtrip():
    text = "3\n# a comment\n1 2\n2 3 # trailing\n1 3\n"
    assert parse_edge_list(text) == named("cycle:3")
    g = named("house")
    assert parse_edge_list(emit_edge_list(g)) == g
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("2\n1 2 3")


@pytest.mark.parametrize("n", range(1, MAX_VERTICES + 1))
def test_edge_list_roundtrip_every_size(n):
    rng = random.Random(n)
    for g in (named(f"empty:{n}"), named(f"complete:{n}"), random_graph(rng, n)):
        assert parse_edge_list(emit_edge_list(g)) == g


@pytest.mark.parametrize("text, message", [
    ("", "empty edge-list input"),
    ("# only a comment\n\n", "empty edge-list input"),
    ("three\n", "bad vertex count line 'three'"),
    ("0\n", "vertex count 0 out of range 1..32"),
    ("33\n", "vertex count 33 out of range 1..32"),
    ("2\n1 2 3", "bad edge line '1 2 3'"),
    ("2\n1", "bad edge line '1'"),
    ("2\n1 x", "bad edge line '1 x'"),
    ("2\n1 3", "edge (1,3) out of range for n=2"),
    ("2\n0 1", "edge (0,1) out of range for n=2"),
    ("2\n2 2", "self-loop (2,2) rejected"),
])
def test_edge_list_error_messages(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_edge_list(text)


def test_constructors_keep_adjacency_invariants():
    rng = random.Random(12)
    for g in [named("house"), named("bistar"), random_graph(rng, 8)]:
        for v in range(g.n):
            assert not (g.adj[v] >> v) & 1
            for u in range(g.n):
                assert ((g.adj[v] >> u) & 1) == ((g.adj[u] >> v) & 1)
    for n in range(1, 5):
        for g in all_graphs(n):
            Graph(g.n, g.adj)  # revalidates in the constructor
