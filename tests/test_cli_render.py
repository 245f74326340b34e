"""The CLI's JSON renderer prints exactly json.dumps(report, indent=2, sort_keys=True).

The reports hold expansion terms as `cli._Terms` and edge lists as tuples
of int pairs.  `plain` spells the terms out as the {"bits", "sign"}
records they stand for by hand, not through json.dumps(default=...),
which a tuple or list subclass would never reach.  The library's records
are named tuples, which `_render` would print as edge lists, so no report
may hold one.
"""

import json
import random

import pytest

from test_cli_bytes import COMMANDS
from graphstates import cli, gf2
from graphstates.graphs import emit_graph6, from_edges, named, random_graph
from graphstates.xchains import XBasisExpansion


def terms(items, width):
    return cli._Terms(XBasisExpansion(tuple(range(1, width + 1)), 0, dict(items)))


def plain(x):
    if isinstance(x, cli._Terms):
        return [{"bits": gf2.mask_to_string(m, x.width), "sign": s} for m, s in x.items]
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    return x


def tuple_subclasses(x):
    """Every value nested in x whose type is a tuple subclass, such as a record."""
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, tuple) and type(x) is not tuple:
        return [x]
    if isinstance(x, (list, tuple)):
        return [r for v in x for r in tuple_subclasses(v)]
    return []


def expected(report):
    return json.dumps(plain(report), indent=2, sort_keys=True)


def json_report(monkeypatch, capsys, argv):
    """Run one command with --format json; return its report after checking its stdout."""
    reports = []
    render = cli._render

    def spy(x, *pad):
        if not pad:
            reports.append(x)
        return render(x, *pad)

    monkeypatch.setattr(cli, "_render", spy)
    assert cli.run(argv + ["--format", "json"]) == 0
    [report] = reports
    assert tuple_subclasses(report) == []
    assert capsys.readouterr().out == expected(report) + "\n"
    return report


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_render_matches_json_dumps_on_pinned_commands(monkeypatch, capsys, argv):
    report = json_report(monkeypatch, capsys, argv)
    if argv[0] == "verify":
        assert report["notes"]


def test_schmidt_report_holds_no_records(monkeypatch, capsys):
    # the handler reads a decomposition, its terms and a bipartition, all records
    report = json_report(monkeypatch, capsys, ["schmidt", "--graph", "house", "--part-a", "1,2,3"])
    assert tuple_subclasses(report) == []
    assert tuple_subclasses({"graph": [named("house")]}) == [named("house")]


def test_render_matches_json_dumps_on_4096_terms(monkeypatch, capsys):
    # full-rank bipartite graph: small side 1..6, so |K| = 12
    rng = random.Random(11)
    while True:
        edges = [(u, v) for u in range(1, 7) for v in range(7, 33) if rng.getrandbits(1)]
        g = from_edges(32, edges)
        if gf2.rref(list(g.adj[:6]), 32).dim == 6:
            break
    report = json_report(monkeypatch, capsys, ["represent", "--graph", "g6:" + emit_graph6(g)])
    assert len(report["expansion"]["terms"].items) == 4096


def test_render_matches_json_dumps_on_dense_overlap(monkeypatch, capsys):
    rng = random.Random(12)
    g, h = random_graph(rng, 32), random_graph(rng, 32)
    argv = ["overlap", "--graph", "g6:" + emit_graph6(g), "--graph2", "g6:" + emit_graph6(h)]
    report = json_report(monkeypatch, capsys, argv)
    assert min(len(report["graph"]["edges"]), len(report["graph2"]["edges"])) > 200


def test_render_of_empty_and_width_0_leaves():
    report = {
        "terms": terms({0: -1}, 0),
        "no_terms": terms({}, 3),
        "edges": (),
        "list": [],
        "dict": {},
    }
    assert cli._render(report) == expected(report)
    assert '"bits": ""' in cli._render(report)


def test_render_matches_json_dumps_on_drawn_reports():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    term_lists = st.integers(0, 12).flatmap(
        lambda w: st.dictionaries(st.integers(0, (1 << w) - 1), st.sampled_from([1, -1]), max_size=8)
        .map(lambda t: terms(t, w))
    )
    edges = st.lists(st.tuples(st.integers(1, 32), st.integers(1, 32)), max_size=6).map(tuple)
    scalars = (
        st.integers()
        | st.booleans()
        | st.none()
        | st.floats()
        | st.text()
        | st.sampled_from(['"', "\\", "é", " ", "\U0001f600"])
    )
    reports = st.recursive(
        scalars | term_lists | edges,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=24,
    )

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(reports)
    def check(report):
        assert cli._render(report) == expected(report)

    check()
