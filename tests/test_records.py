"""Records are immutable named tuples, compared and hashed by value.

The package imports neither `dataclasses` nor `inspect`, which together
cost a one-shot command such as `bias` about a third of its start-up, nor
`fractions`: its exact results are integers and dyadic numbers.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import graphstates
from graphstates.bias import DyadicReal, bias_degree
from graphstates.gf2 import rref
from graphstates.graphs import Bipartition, Graph, from_edges, named
from graphstates.xchains import factorize

START_AND_RUN = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import graphstates.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = graphstates.cli.run(["bias", "--graph", "cycle:8"])
print(code, sorted({"dataclasses", "fractions", "inspect"} & set(sys.modules)))
"""


def test_a_one_shot_command_imports_no_dataclasses_or_inspect():
    src = str(Path(graphstates.__file__).resolve().parent.parent)
    # -S: no site hooks, so only the package's own imports are seen
    done = subprocess.run(
        [sys.executable, "-S", "-c", START_AND_RUN, src],
        capture_output=True, text=True, timeout=60,
    )
    assert done.stderr == ""
    assert done.stdout == "0 []\n"


@pytest.mark.parametrize(
    "record, field",
    [
        (named("cycle:4"), "adj"),
        (rref([3, 5], 3), "rows"),
        (DyadicReal(1, 2), "sign"),
        (factorize(named("star:4")), "x_gamma"),
    ],
    ids=lambda x: type(x).__name__ if not isinstance(x, str) else x,
)
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0


def test_equal_records_hash_equal():
    pairs = [
        (named("cycle:5"), from_edges(5, [(5, 1), (1, 2), (2, 3), (3, 4), (4, 5)])),
        (rref([3, 5], 3), rref([6, 5, 3], 3)),
        (DyadicReal(-1, 4), bias_degree(named("complete:4"))),
        (factorize(named("house")), factorize(named("house"))),
        (Bipartition.from_a(4, [1, 3]), Bipartition(4, 0b0101, 0b1010)),
    ]
    for r, s in pairs:
        assert r is not s
        assert r == s
        assert hash(r) == hash(s)


def test_records_repr_as_the_dataclasses_did():
    assert repr(named("star:3")) == "Graph(n=3, adj=(6, 1, 1))"
    assert repr(DyadicReal(-1, 3)) == "DyadicReal(sign=-1, half_log=3)"
    assert repr(rref([3, 5], 3)) == "Basis(width=3, rows=(5, 6), pivots=(0, 1))"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Graph(0, ()), "vertex count 0 out of range 1..32"),
        (lambda: Graph(2, (2,)), "adjacency row count does not match n"),
        (lambda: Graph(2, (4, 0)), "adjacency bits outside vertex range"),
        (lambda: Graph(2, (1, 0)), "self-loop on vertex 1"),
        (lambda: Graph(2, (2, 0)), "adjacency is not symmetric"),
        (lambda: Bipartition(3, 3, 6), "parts overlap"),
        (lambda: Bipartition(3, 1, 2), "parts do not cover the vertex set"),
        (lambda: Bipartition(2, 0, 3), "both parts must be nonempty"),
        (lambda: DyadicReal(2, 0), "sign must be -1, 0 or +1"),
        (lambda: DyadicReal(1, -1), "half_log must be nonnegative"),
        (lambda: DyadicReal(0, 2), "zero must be canonical (half_log 0)"),
    ],
)
def test_validating_records_refuse_bad_fields(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
