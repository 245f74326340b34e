"""Output checks, run outside the timed region.

Every successful op is checked three ways, as far as each applies:

- closed-form facts computed here, independent of the program, at every n
  (|K| = GF(2) rank of the adjacency, zero bias iff some X-chain has an odd
  induced edge count, Schmidt rank = 2^(GF(2) cut rank));
- the dense oracle (graphstates.oracle) when n <= 14;
- the outputs recorded in golden.json when n > 14.  A field the recorded
  output leaves undetermined ("alpha": null) may be filled in later, and
  an op recorded as refused may succeed later (then only the closed-form
  facts check it).

A wrong output raises CheckFailure and fails the run; it never becomes a
metric.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from workloads import DENSE_MAX_N, gf2_rank, induced_edges, is_balanced, parse_spec

GOLDEN_PATH = Path(__file__).with_name("golden.json")


class CheckFailure(Exception):
    pass


def reason_of(stderr: str) -> str:
    """Leading clause of the last ``error:`` line, with numbers replaced by #."""
    lines = [ln for ln in stderr.splitlines() if ln.startswith("error:")]
    if not lines:
        return "no error line"
    clause = re.split(r"[;:]", lines[-1][len("error:"):].strip(), maxsplit=1)[0]
    return re.sub(r"\d+", "#", clause.strip())


def digest(report: dict) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def golden_key(op) -> str:
    return hashlib.sha256(op.key.encode()).hexdigest()[:24]


def golden_entry(code: int, report: dict | None, reason: str | None) -> str:
    """Compact record of one outcome: "0:<digest>", "0a:<digest>" or "2:<reason>".

    "0a" marks a success whose alpha was left undetermined (null).
    """
    if code != 0:
        return f"{code}:{reason}"
    alpha_null = "alpha" in report and report["alpha"] is None
    return f"0{'a' if alpha_null else ''}:{digest(report)}"


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _require(cond: bool, what: str, op) -> None:
    if not cond:
        raise CheckFailure(f"{what}: {op.key}")


def _mask(bits: str) -> int:
    return sum(1 << j for j, ch in enumerate(bits) if ch == "1")


def _vertex_mask(vertices) -> int:
    return sum(1 << (v - 1) for v in vertices)


def _span(rows) -> set[int]:
    span = {0}
    for row in rows:
        span |= {x ^ row for x in span}
    return span


class Checker:
    def __init__(self, golden: dict, gs):
        self.golden = golden
        self.gs = gs  # the graphstates package; its oracle is the reference
        self.unrecorded_successes = 0  # ops recorded as refused that now succeed

    def graph(self, spec: str):
        adj = parse_spec(spec)
        edges = [(u + 1, v + 1) for u in range(len(adj)) for v in range(u + 1, len(adj))
                 if (adj[u] >> v) & 1]
        return adj, self.gs.graphs.from_edges(len(adj), edges)

    def expected_refusal(self, op, reason: str) -> bool:
        """True when golden.json recorded this op as refused for this reason."""
        return op.n > DENSE_MAX_N and self.golden.get(golden_key(op)) == f"2:{reason}"

    def check(self, op, report: dict) -> None:
        """Raise CheckFailure unless the successful op's JSON report is right."""
        getattr(self, f"_closed_{op.command}", lambda op, report: None)(op, report)
        if op.n <= DENSE_MAX_N:
            getattr(self, f"_oracle_{op.command}", lambda op, report: None)(op, report)
        elif op.graphs:
            self._golden(op, report)

    def _golden(self, op, report: dict) -> None:
        entry = self.golden.get(golden_key(op))
        _require(entry is not None, "no recorded output", op)
        kind, _, value = entry.partition(":")
        if kind == "2":
            self.unrecorded_successes += 1
            return
        if kind == "0a":
            _require(report.get("alpha") in (None, 1, -1), "alpha", op)
            report = dict(report, alpha=None)
        _require(digest(report) == value, "output differs from the recorded one", op)

    # ---------------------------------------------- closed forms, every n

    def _dyadic(self, op, adj, value: str) -> None:
        if is_balanced(adj):
            _require(value == "0", "zero bias of a balanced graph", op)
        else:
            _require(re.fullmatch(rf"[+-]2\^-{gf2_rank(adj)}/2", value) is not None,
                     "bias magnitude 2^-|K|/2", op)

    def _closed_bias(self, op, report):
        self._dyadic(op, parse_spec(op.graphs[0]), report["bias"]["value"])

    def _closed_overlap(self, op, report):
        g, h = (parse_spec(s) for s in op.graphs)
        self._dyadic(op, [a ^ b for a, b in zip(g, h)], report["overlap"]["value"])

    def _closed_xchains(self, op, report):
        adj = parse_spec(op.graphs[0])
        rows = [_mask(gen["bits"]) for gen in report["generators"]]
        _require(len(report["kappa"]) == gf2_rank(adj), "|K| = rank", op)
        _require(len(rows) == len(adj) - gf2_rank(adj), "dim of the X-chain group", op)
        x_gamma = 0
        for gen, row in zip(report["generators"], rows):
            _require(all((a & row).bit_count() % 2 == 0 for a in adj), "X-chain", op)
            parity = -1 if induced_edges(adj, row) & 1 else 1
            _require(gen["parity"] == parity, "generator parity", op)
            if parity < 0:
                x_gamma |= 1 << (gen["exclusive"] - 1)
        _require(_mask(report["x_gamma"]) == x_gamma, "fundamental string", op)

    def _closed_represent(self, op, report):
        adj = parse_spec(op.graphs[0])
        e = report["expansion"]
        _require(e["half_log_norm"] == gf2_rank(adj), "norm 2^-|K|/2", op)
        _require(len(e["terms"]) == 1 << gf2_rank(adj), "2^|K| terms", op)

    def _closed_schmidt(self, op, report):
        adj = parse_spec(op.graphs[0])
        part_a = _vertex_mask(report["partition"]["a"])
        cut = gf2_rank([adj[v] & ~part_a for v in range(len(adj)) if (part_a >> v) & 1])
        _require(report["k"] == cut, "Schmidt log-rank = cut rank", op)
        _require(report["rank"] == 1 << cut == len(report["terms"]), "Schmidt rank", op)

    def _closed_localize(self, op, report):
        errors = op.argv[op.argv.index("--errors") + 1]
        flips = len(errors.split(",")) if errors else 0
        _require(report["success"] is True, "decoding success", op)
        _require(report["corrected"] == report["ideal"], "corrected word", op)
        _require(report["flips"] == flips, "flips = errors inside the radius", op)

    # ------------------------------------------------- dense oracle, n <= 14

    def _oracle_bias(self, op, report):
        adj, g = self.graph(op.graphs[0])
        empty = self.gs.graphs.from_edges(len(adj), [])
        want = self.gs.oracle.dense_overlap(g, empty)
        _require(report["bias"]["value"] == str(want), "bias vs dense overlap", op)

    def _oracle_overlap(self, op, report):
        (_, g), (_, h) = (self.graph(s) for s in op.graphs)
        want = self.gs.oracle.dense_overlap(g, h)
        _require(report["overlap"]["value"] == str(want), "overlap vs dense overlap", op)

    def _oracle_xchains(self, op, report):
        _, g = self.graph(op.graphs[0])
        rows = [_mask(gen["bits"]) for gen in report["generators"]]
        _require(_span(rows) == self.gs.oracle.brute_xchains(g), "X-chain group", op)
        _require(report["alpha"] in (1, -1), "alpha determined for |K| <= 14", op)

    def _oracle_represent(self, op, report):
        _, g = self.graph(op.graphs[0])
        oracle = self.gs.oracle
        dense = oracle.dense_to_x(oracle.dense_state_z(g)).reduced()
        e = report["expansion"]
        terms = {_mask(t["bits"]): t["sign"] for t in e["terms"]}
        _require(dense.scale == e["half_log_norm"], "expansion norm vs dense", op)
        _require(terms == {m: a for m, a in enumerate(dense.amps) if a},
                 "expansion vs dense Hadamard transform", op)

    def _oracle_schmidt(self, op, report):
        adj, g = self.graph(op.graphs[0])
        part = self.gs.graphs.Bipartition.from_a(len(adj), report["partition"]["a"])
        want = self.gs.oracle.dense_schmidt_rank(g, part)
        _require(report["rank"] == want, "Schmidt rank vs dense rank", op)

    # ------------------------------------------------------------ sweep

    def _closed_verify(self, op, report):
        max_n, samples = int(op.argv[2]), int(op.argv[4])
        graphs = sum(1 << (n * (n - 1) // 2) for n in range(1, min(max_n, 5) + 1))
        graphs += samples * max(0, max_n - 5)
        _require(report["ok"] is True and report["mismatches"] == [], "verify ok", op)
        _require(report["graphs_checked"] == graphs, f"verify checked {graphs} graphs", op)

    def _closed_balanced(self, op, report):
        seen = set()
        for c in report["classes"]:
            n = c["n"]
            g = self.gs.graphs.from_edges(n, [tuple(e) for e in c["edges"]])
            empty = self.gs.graphs.from_edges(n, [])
            _require(self.gs.oracle.dense_overlap(g, empty).sign == 0,
                     "catalog class is balanced (oracle)", op)
            w = _vertex_mask(c["witness_xchain"])
            _require(all((a & w).bit_count() % 2 == 0 for a in g.adj), "witness is an X-chain", op)
            edges = induced_edges(list(g.adj), w)
            _require(edges % 2 == 1 and edges == c["witness_edge_count"], "odd-edge witness", op)
            seen.add((n, g.adj))
        _require(len(seen) == len(report["classes"]) > 0, "distinct catalog classes", op)
