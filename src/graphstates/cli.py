"""Command-line front end: analysis commands and the verify harness."""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import bias, gf2, localize, oracle, schmidt, xchains
from .bias import DyadicReal
from .graphs import Bipartition, Graph, emit_graph6, named, parse_edge_list, parse_graph6
from .stab import stabilizer_parity


def load_graph(spec: str) -> Graph:
    """Dispatch a graph spec: a family name, @file.edges, or g6:string."""
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as fh:
                return parse_edge_list(fh.read())
        except OSError as exc:
            raise ValueError(f"cannot read graph file {spec[1:]!r}: {exc}") from exc
    if spec.startswith("g6:"):
        return parse_graph6(spec[3:])
    return named(spec)


def _parse_vertices(text: str, n: int, what: str) -> list[int]:
    if not text:
        return []
    out = []
    for piece in text.split(","):
        try:
            v = int(piece)
        except ValueError:
            raise ValueError(f"bad vertex {piece!r} in {what}") from None
        if not 1 <= v <= n:
            raise ValueError(f"vertex {v} out of range 1..{n} in {what}")
        if v in out:
            raise ValueError(f"vertex {v} listed twice in {what}")
        out.append(v)
    return out


def _graph_echo(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges()]}


def _dyadic_echo(d: DyadicReal) -> dict:
    return {"value": str(d), "approx": d.approx()}


def _bits(mask: int, width: int) -> str:
    return gf2.mask_to_string(mask, width)


def _emit(report: dict, fmt: str, text: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(text)


def _expansion_echo(e: xchains.XBasisExpansion) -> dict:
    return {
        "qubits": list(e.qubits),
        "half_log_norm": e.half_log_norm,
        "terms": [
            {"bits": _bits(mask, len(e.qubits)), "sign": sign}
            for mask, sign in sorted(e.terms.items())
        ],
    }


def _cmd_xchains(args) -> int:
    g = load_graph(args.graph)
    xd = xchains.factorize(g)
    gens = [
        {
            "vertices": list(gf2.vertices_of(row)),
            "bits": _bits(row, g.n),
            "parity": stabilizer_parity(g, row),
            "exclusive": p + 1,
        }
        for p, row in zip(xd.gamma.pivots, xd.gamma.rows)
    ]
    report = {
        "command": "xchains",
        "graph": _graph_echo(g),
        "generators": gens,
        "kappa": list(xd.kappa),
        "x_gamma": _bits(xd.x_gamma, g.n),
        "alpha": xd.alpha,
    }
    lines = [f"graph: n={g.n}, edges: " + " ".join(f"({u},{v})" for u, v in g.edges())]
    lines.append(f"X-chain group: dim {xd.gamma.dim}")
    for gen in gens:
        vs = "{" + ",".join(map(str, gen["vertices"])) + "}"
        lines.append(
            f"  {vs:<14} bits {gen['bits']}  parity {gen['parity']:+d}"
            f"  exclusive vertex {gen['exclusive']}"
        )
    lines.append("free vertices K: " + (",".join(map(str, xd.kappa)) or "(none)"))
    lines.append(f"fundamental string x_Gamma = {report['x_gamma']}")
    lines.append(f"global sign alpha = {xd.alpha:+d}")
    _emit(report, args.format, "\n".join(lines))
    return 0


def _cmd_represent(args) -> int:
    g = load_graph(args.graph)
    xd = xchains.factorize(g)
    e = xchains.x_representation(g)
    report = {
        "command": "represent",
        "graph": _graph_echo(g),
        "x_gamma": _bits(xd.x_gamma, g.n),
        "alpha": xd.alpha,
        "expansion": _expansion_echo(e),
    }
    lines = [f"graph: n={g.n}, edges: " + " ".join(f"({u},{v})" for u, v in g.edges())]
    lines.append("P(V) = <Gamma> x <K>")
    lines.append(f"  Gamma (X-chain group, dim {xd.gamma.dim}):")
    for p, row in zip(xd.gamma.pivots, xd.gamma.rows):
        vs = "{" + ",".join(map(str, gf2.vertices_of(row))) + "}"
        lines.append(
            f"    {vs:<14} bits {_bits(row, g.n)}"
            f"  parity {stabilizer_parity(g, row):+d}  exclusive {p + 1}"
        )
    lines.append("  K (free vertices): " + (",".join(map(str, xd.kappa)) or "(none)"))
    lines.append(f"    -> fundamental string |{report['x_gamma']}>")
    lines.append(f"    -> {1 << len(xd.kappa)} product-state terms, one per subset of K")
    lines.append(f"  global sign alpha = {xd.alpha:+d}")
    lines.append(f"|G> = {e}")
    _emit(report, args.format, "\n".join(lines))
    return 0


def _cmd_bias(args) -> int:
    g = load_graph(args.graph)
    d = bias.bias_degree(g)
    report = {"command": "bias", "graph": _graph_echo(g), "bias": _dyadic_echo(d)}
    _emit(report, args.format, f"bias degree: {d} (approx {d.approx():.6g})")
    return 0


def _cmd_overlap(args) -> int:
    g = load_graph(args.graph)
    h = load_graph(args.graph2)
    d = bias.overlap(g, h)
    report = {
        "command": "overlap",
        "graph": _graph_echo(g),
        "graph2": _graph_echo(h),
        "overlap": _dyadic_echo(d),
    }
    _emit(report, args.format, f"overlap: {d} (approx {d.approx():.6g})")
    return 0


def _cmd_balanced(args) -> int:
    max_n = args.max_n if args.max_n is not None else 5
    classes = []
    for n in range(1, max_n + 1):
        for entry in bias.enumerate_balanced(n):
            classes.append(
                {
                    "n": n,
                    "edges": [list(e) for e in entry.graph.edges()],
                    "witness_xchain": list(gf2.vertices_of(entry.witness)),
                    "witness_edge_count": entry.witness_edge_count,
                }
            )
    report = {"command": "balanced", "max_n": max_n, "classes": classes}
    lines = [f"balanced graph-state classes up to n={max_n}: {len(classes)}"]
    for c in classes:
        edges = " ".join(f"({u},{v})" for u, v in c["edges"])
        wit = "{" + ",".join(map(str, c["witness_xchain"])) + "}"
        lines.append(
            f"  n={c['n']}  edges: {edges}  odd-edge X-chain {wit}"
            f" ({c['witness_edge_count']} edges)"
        )
    _emit(report, args.format, "\n".join(lines))
    return 0


def _cmd_schmidt(args) -> int:
    g = load_graph(args.graph)
    part = Bipartition.from_a(g.n, _parse_vertices(args.part_a, g.n, "--part-a"))
    dec = schmidt.schmidt_decomposition(g, part)
    rank, k, measure = schmidt.schmidt_rank(g, part)
    report = {
        "command": "schmidt",
        "graph": _graph_echo(g),
        "partition": {
            "a": list(gf2.vertices_of(part.a)),
            "b": list(gf2.vertices_of(part.b)),
        },
        "k": k,
        "rank": rank,
        "geometric_measure": measure,
        "coeff": f"2^-{k}/2",
        "alpha": dec.alpha,
        "terms": [
            {
                "xi": list(gf2.vertices_of(t.label)),
                "sign": t.sign,
                "vecA": _expansion_echo(t.vec_a)["terms"],
                "vecB": _expansion_echo(t.vec_b)["terms"],
            }
            for t in dec.terms
        ],
    }
    lines = [
        f"bipartition A={report['partition']['a']} B={report['partition']['b']}",
        f"Schmidt rank {rank} (log {k}), geometric measure {measure}",
        f"coefficient 2^-{k}/2, global sign alpha = {dec.alpha:+d}",
    ]
    for t in dec.terms:
        label = "{" + ",".join(map(str, gf2.vertices_of(t.label))) + "}"
        lines.append(f"  term {label or '{}'}: sign {t.sign:+d}")
        lines.append(f"    A: {t.vec_a}")
        lines.append(f"    B: {t.vec_b}")
    _emit(report, args.format, "\n".join(lines))
    return 0


def _cmd_localize(args) -> int:
    g = load_graph(args.graph)
    part = Bipartition.from_a(g.n, _parse_vertices(args.part_a, g.n, "--part-a"))
    errors = gf2.mask_of(_parse_vertices(args.errors, g.n, "--errors"))
    rep = localize.simulate(g, part, errors, args.seed)
    width_a = part.a.bit_count()
    report = {
        "command": "localize",
        "graph": _graph_echo(g),
        "partition": {
            "a": list(gf2.vertices_of(part.a)),
            "b": list(gf2.vertices_of(part.b)),
        },
        "ideal": _bits(rep.ideal_word, width_a),
        "noisy": _bits(rep.noisy, width_a),
        "corrected": _bits(rep.corrected, width_a),
        "label": list(gf2.vertices_of(rep.decoded_label)),
        "flips": rep.flips,
        "success": rep.success,
        "bob_state": _expansion_echo(rep.bob_state),
    }
    lines = [
        f"ideal outcome   {report['ideal']}",
        f"noisy outcome   {report['noisy']}",
        f"corrected to    {report['corrected']} ({rep.flips} flip(s))",
        f"decoded label   {set(gf2.vertices_of(rep.decoded_label)) or '{}'}",
        f"Bob's state     {rep.bob_state}",
        f"success         {rep.success}",
    ]
    _emit(report, args.format, "\n".join(lines))
    return 0


# ---------------------------------------------------------------- verify


def _random_graph(rng: random.Random, n: int) -> Graph:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.getrandbits(1):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def _all_graphs(n: int):
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(slots)):
        adj = [0] * n
        m = mask
        for u, v in slots:
            if m & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            m >>= 1
        yield Graph(n, tuple(adj))


def _verify_one(g: Graph, rng: random.Random, mismatches: list[str], notes: list[str]):
    tag = f"n={g.n} g6={emit_graph6(g)}"
    # (a) symbolic X-chain group vs brute-force scan
    span = set(gf2.iter_span(xchains.xchain_group(g).rows))
    if span != oracle.brute_xchains(g):
        mismatches.append(f"xchain-group {tag}")
    # (b) X-basis expansion vs dense transform, global sign included
    dense = oracle.dense_to_x(oracle.dense_state_z(g)).reduced()
    e = xchains.x_representation(g)
    dense_terms = {m: a for m, a in enumerate(dense.amps) if a}
    if dense.scale != e.half_log_norm or dense_terms != e.terms:
        mismatches.append(f"x-representation {tag}")
    # (c) overlap vs dense inner product, random partner
    h = _random_graph(rng, g.n)
    if bias.overlap(g, h) != oracle.dense_overlap(g, h):
        mismatches.append(f"overlap {tag}")
    # (d) Schmidt rank vs dense reshaped rank, random bipartitions
    if g.n >= 2:
        for _ in range(3):
            a = rng.randrange(1, (1 << g.n) - 1)
            part = Bipartition(g.n, a, ((1 << g.n) - 1) & ~a)
            pg = schmidt.partition_groups(g, part)
            if pg.k_simb.dim:
                notes.append(f"nonempty detached subgroup {tag} A={a:b}")
            if (1 << pg.k_harpoon.dim) != oracle.dense_schmidt_rank(g, part):
                mismatches.append(f"schmidt-rank {tag} A={a:b}")
    # (e) measurement support vs Born distribution
    if dict(xchains.measurement_support(g)) != oracle.x_distribution(g):
        mismatches.append(f"measurement-support {tag}")


def run_verification(max_n: int = 8, samples: int = 30, seed: int = 0):
    """Oracle-equivalence sweep; returns (graph count, mismatches, notes).

    Exhaustive over all graphs for n <= 5, seeded random samples beyond.
    """
    rng = random.Random(seed)
    mismatches: list[str] = []
    notes: list[str] = []
    count = 0
    for n in range(1, min(max_n, 5) + 1):
        for g in _all_graphs(n):
            _verify_one(g, rng, mismatches, notes)
            count += 1
    for n in range(6, max_n + 1):
        for _ in range(samples):
            _verify_one(_random_graph(rng, n), rng, mismatches, notes)
            count += 1
    return count, mismatches, notes


def _cmd_verify(args) -> int:
    count, mismatches, notes = run_verification(args.max_n, args.samples, args.seed)
    report = {
        "command": "verify",
        "max_n": args.max_n,
        "samples": args.samples,
        "seed": args.seed,
        "graphs_checked": count,
        "mismatches": mismatches,
        "notes": notes,
        "ok": not mismatches,
    }
    lines = [f"checked {count} graphs up to n={args.max_n} (seed {args.seed})"]
    if notes:
        lines.append(f"notes: {len(notes)} (first 3 shown)")
        lines.extend(f"  note: {note}" for note in notes[:3])
    for bad in mismatches:
        lines.append(f"MISMATCH: {bad}")
    lines.append("ok" if not mismatches else f"{len(mismatches)} mismatch(es)")
    _emit(report, args.format, "\n".join(lines))
    return 0 if not mismatches else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphstates",
        description="Exact X-basis analysis of graph states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")

    def add(name, handler, **flags):
        p = sub.add_parser(name, parents=[common])
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
        return p

    graph_flag = {"required": True, "help": "graph spec: family name, @file.edges, or g6:..."}
    add("xchains", _cmd_xchains, **{"--graph": graph_flag})
    add("represent", _cmd_represent, **{"--graph": graph_flag})
    add("bias", _cmd_bias, **{"--graph": graph_flag})
    add(
        "overlap",
        _cmd_overlap,
        **{"--graph": graph_flag, "--graph2": dict(graph_flag)},
    )
    add("balanced", _cmd_balanced, **{"--max-n": {"type": int, "default": None}})
    add(
        "schmidt",
        _cmd_schmidt,
        **{
            "--graph": graph_flag,
            "--part-a": {"required": True, "help": "comma-separated A vertices"},
        },
    )
    add(
        "localize",
        _cmd_localize,
        **{
            "--graph": graph_flag,
            "--part-a": {"required": True, "help": "comma-separated A vertices"},
            "--errors": {"default": "", "help": "comma-separated error vertices on A"},
            "--seed": {"type": int, "default": 0},
        },
    )
    add(
        "verify",
        _cmd_verify,
        **{
            "--max-n": {"type": int, "default": 8},
            "--samples": {"type": int, "default": 30},
            "--seed": {"type": int, "default": 0},
        },
    )
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
