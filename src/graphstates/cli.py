"""Command-line front end: one subcommand per analysis, plus verify."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import bias, gf2, localize, schmidt, xchains
from .bias import DyadicReal
from .graphs import Bipartition, Graph, named, parse_edge_list, parse_graph6
from .verify import run_verification


def load_graph(spec: str) -> Graph:
    """Dispatch a graph spec: a family name, @file.edges, or g6:string."""
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as fh:
                return parse_edge_list(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
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


class _Terms:
    """An expansion's sorted (mask, sign) terms, printed as {"bits", "sign"} records."""

    __slots__ = ("items", "width")

    def __init__(self, e: xchains.XBasisExpansion):
        self.items = sorted(e.terms.items())
        self.width = len(e.qubits)


def _render(x, pad: str = "\n") -> str:
    """x as json.dumps(x, indent=2, sort_keys=True) prints it, its lines indented by pad.

    Dicts and lists are laid out here and every other leaf goes to
    json.dumps, except two shapes written one f-string per item: _Terms,
    and a tuple, which is an edge list of int pairs.
    """
    inner = pad + "  "
    if isinstance(x, dict):
        items = [f"{json.dumps(k)}: {_render(x[k], inner)}" for k in sorted(x)]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(x, _Terms):
        top, leaf = 1 << x.width, inner + "  "
        items = [
            f'{{{leaf}"bits": "{bin(m | top)[:2:-1]}",{leaf}"sign": {s}{inner}}}'
            for m, s in x.items
        ]
    elif isinstance(x, tuple):
        items = [f"[{inner}  {u},{inner}  {v}{inner}]" for u, v in x]
    elif isinstance(x, list):
        items = [_render(v, inner) for v in x]
    else:
        return json.dumps(x)
    return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"


def _graph_echo(g: Graph) -> dict:
    return {"n": g.n, "edges": g.edges()}


def _dyadic_echo(d: DyadicReal) -> dict:
    return {"value": str(d), "approx": d.approx()}


def _expansion_echo(e: xchains.XBasisExpansion) -> dict:
    return {"qubits": list(e.qubits), "half_log_norm": e.half_log_norm, "terms": _Terms(e)}


def _set(mask: int) -> str:
    return "{" + ",".join(map(str, gf2.vertices_of(mask))) + "}"


def _graph_line(g: Graph) -> str:
    return f"graph: n={g.n}, edges: " + " ".join(f"({u},{v})" for u, v in g.edges())


def _generators(xd: xchains.XChainData) -> list[tuple[int, int, int]]:
    """(pivot, row, parity) per X-chain generator: parity -1 iff its pivot is in x_Gamma."""
    return [
        (p, row, -1 if xd.x_gamma >> p & 1 else 1)
        for p, row in zip(xd.gamma.pivots, xd.gamma.rows)
    ]


def _generator_lines(g: Graph, gens, indent: str, exclusive: str):
    """One text line per X-chain group generator; `exclusive` names its exclusive vertex."""
    for p, row, parity in gens:
        yield (
            f"{indent}{_set(row):<14} bits {gf2.mask_to_string(row, g.n)}"
            f"  parity {parity:+d}  {exclusive} {p + 1}"
        )


def _cmd_xchains(args, g):
    xd = xchains.factorize(g)
    alpha = xchains.global_sign(g, xd)
    gens = _generators(xd)
    report = {
        "generators": [
            {
                "vertices": list(gf2.vertices_of(row)),
                "bits": gf2.mask_to_string(row, g.n),
                "parity": parity,
                "exclusive": p + 1,
            }
            for p, row, parity in gens
        ],
        "kappa": list(xd.kappa),
        "x_gamma": gf2.mask_to_string(xd.x_gamma, g.n),
        "alpha": alpha,
    }

    def lines():
        yield _graph_line(g)
        yield f"X-chain group: dim {xd.gamma.dim}"
        yield from _generator_lines(g, gens, "  ", "exclusive vertex")
        yield "free vertices K: " + (",".join(map(str, xd.kappa)) or "(none)")
        yield f"fundamental string x_Gamma = {report['x_gamma']}"
        yield f"global sign alpha = {alpha:+d}"

    return report, lines


def _cmd_represent(args, g):
    xd = xchains.factorize(g)
    e = xchains.x_representation(g, xd)
    alpha = e.terms[xd.x_gamma]  # the term |x_Gamma> carries the global sign alone
    report = {
        "x_gamma": gf2.mask_to_string(xd.x_gamma, g.n),
        "alpha": alpha,
        "expansion": _expansion_echo(e),
    }

    def lines():
        yield _graph_line(g)
        yield "P(V) = <Gamma> x <K>"
        yield f"  Gamma (X-chain group, dim {xd.gamma.dim}):"
        yield from _generator_lines(g, _generators(xd), "    ", "exclusive")
        yield "  K (free vertices): " + (",".join(map(str, xd.kappa)) or "(none)")
        yield f"    -> fundamental string |{report['x_gamma']}>"
        yield f"    -> {1 << len(xd.kappa)} product-state terms, one per subset of K"
        yield f"  global sign alpha = {alpha:+d}"
        yield f"|G> = {e}"

    return report, lines


def _cmd_bias(args, g):
    d = bias.bias_degree(g)
    return {"bias": _dyadic_echo(d)}, lambda: [f"bias degree: {d} (approx {d.approx():.6g})"]


def _cmd_overlap(args, g):
    h = load_graph(args.graph2)
    d = bias.overlap(g, h)
    report = {"graph2": _graph_echo(h), "overlap": _dyadic_echo(d)}
    return report, lambda: [f"overlap: {d} (approx {d.approx():.6g})"]


def _cmd_balanced(args, g):
    max_n = args.max_n
    if not 1 <= max_n <= bias.MAX_BALANCED_N:
        raise ValueError(f"max_n {max_n} out of range 1..{bias.MAX_BALANCED_N}")
    entries = [(n, c) for n in range(1, max_n + 1) for c in bias.enumerate_balanced(n)]
    classes = [
        {
            "n": n,
            "edges": c.graph.edges(),
            "witness_xchain": list(gf2.vertices_of(c.witness)),
            "witness_edge_count": c.witness_edge_count,
        }
        for n, c in entries
    ]
    report = {"max_n": max_n, "classes": classes}

    def lines():
        yield f"balanced graph-state classes up to n={max_n}: {len(classes)}"
        for n, c in entries:
            edges = " ".join(f"({u},{v})" for u, v in c.graph.edges())
            yield (
                f"  n={n}  edges: {edges}  odd-edge X-chain {_set(c.witness)}"
                f" ({c.witness_edge_count} edges)"
            )

    return report, lines


def _partition(args, g: Graph) -> Bipartition:
    """The bipartition whose part A is the --part-a vertex list."""
    return Bipartition.from_a(g.n, _parse_vertices(args.part_a, g.n, "--part-a"))


def _partition_echo(part: Bipartition) -> dict:
    return {"a": list(gf2.vertices_of(part.a)), "b": list(gf2.vertices_of(part.b))}


def _cmd_schmidt(args, g):
    part = _partition(args, g)
    dec = schmidt.schmidt_decomposition(g, part)
    k = dec.k
    report = {
        "partition": _partition_echo(part),
        "k": k,
        "rank": dec.rank,
        "geometric_measure": k,
        "coeff": f"2^-{k}/2",
        "alpha": dec.alpha,
        "terms": [
            {
                "xi": list(gf2.vertices_of(t.label)),
                "sign": t.sign,
                "vecA": _Terms(t.vec_a),
                "vecB": _Terms(t.vec_b),
            }
            for t in dec.terms
        ],
    }

    def lines():
        yield f"bipartition A={report['partition']['a']} B={report['partition']['b']}"
        yield f"Schmidt rank {dec.rank} (log {k}), geometric measure {k}"
        yield f"coefficient 2^-{k}/2, global sign alpha = {dec.alpha:+d}"
        for t in dec.terms:
            yield f"  term {_set(t.label)}: sign {t.sign:+d}"
            yield f"    A: {t.vec_a}"
            yield f"    B: {t.vec_b}"

    return report, lines


def _cmd_localize(args, g):
    part = _partition(args, g)
    errors = gf2.mask_of(_parse_vertices(args.errors, g.n, "--errors"))
    rep = localize.simulate(g, part, errors, args.seed)
    width_a = part.a.bit_count()
    report = {
        "partition": _partition_echo(part),
        "ideal": gf2.mask_to_string(rep.ideal_word, width_a),
        "noisy": gf2.mask_to_string(rep.noisy, width_a),
        "corrected": gf2.mask_to_string(rep.corrected, width_a),
        "label": list(gf2.vertices_of(rep.decoded_label)),
        "flips": rep.flips,
        "success": rep.success,
        "bob_state": _expansion_echo(rep.bob_state),
    }

    def lines():
        yield f"ideal outcome   {report['ideal']}"
        yield f"noisy outcome   {report['noisy']}"
        yield f"corrected to    {report['corrected']} ({rep.flips} flip(s))"
        yield f"decoded label   {set(gf2.vertices_of(rep.decoded_label)) or '{}'}"
        yield f"Bob's state     {rep.bob_state}"
        yield f"success         {rep.success}"

    return report, lines


def _cmd_verify(args, g):
    count, mismatches, notes = run_verification(args.max_n, args.samples, args.seed)
    report = {
        "max_n": args.max_n,
        "samples": args.samples,
        "seed": args.seed,
        "graphs_checked": count,
        "mismatches": mismatches,
        "notes": notes,
        "ok": not mismatches,
    }

    def lines():
        yield f"checked {count} graphs up to n={args.max_n} (seed {args.seed})"
        if notes:
            yield f"notes: {len(notes)} (first 3 shown)"
            yield from (f"  note: {note}" for note in notes[:3])
        yield from (f"MISMATCH: {bad}" for bad in mismatches)
        yield "ok" if not mismatches else f"{len(mismatches)} mismatch(es)"

    return report, lines


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValueError, so `run` prints one `error:` line."""

    def error(self, message):
        raise ValueError(message)


_GRAPH = ("--graph", {"required": True, "help": "graph spec: family name, @file.edges, or g6:..."})
_PART_A = ("--part-a", {"required": True, "help": "comma-separated A vertices"})
_SEED = ("--seed", {"type": int, "default": 0})

# command -> (its handler, its flags after --format, in the order usage lists them)
_COMMANDS = {
    "xchains": (_cmd_xchains, [_GRAPH]),
    "represent": (_cmd_represent, [_GRAPH]),
    "bias": (_cmd_bias, [_GRAPH]),
    "overlap": (_cmd_overlap, [_GRAPH, ("--graph2", _GRAPH[1])]),
    "balanced": (_cmd_balanced, [("--max-n", {"type": int, "default": 5})]),
    "schmidt": (_cmd_schmidt, [_GRAPH, _PART_A]),
    "localize": (_cmd_localize, [
        _GRAPH,
        _PART_A,
        ("--errors", {"default": "", "help": "comma-separated error vertices on A"}),
        _SEED,
    ]),
    "verify": (_cmd_verify, [
        ("--max-n", {"type": int, "default": 8}),
        ("--samples", {"type": int, "default": 30}),
        _SEED,
    ]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command in _COMMANDS, built once per process.

    It is shared by every call of `run` and never mutated after it is
    built: `parse_args` returns a fresh Namespace and writes nothing back.
    """
    parser = _Parser(prog="graphstates", description="Exact X-basis analysis of graph states.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--format", choices=("text", "json"), default="text")
        for flag, spec in flags:
            p.add_argument(flag, **spec)
        p.set_defaults(handler=handler)
    return parser


def run(argv=None) -> int:
    """Run one command: load its --graph, echo it, print the report or its lines.

    Exit codes: 0 done, 1 when the report says "ok": false, 2 bad input,
    3 a broken internal invariant.
    """
    try:
        args = build_parser().parse_args(argv)
        g = load_graph(args.graph) if "graph" in args else None
        report, lines = args.handler(args, g)
        report["command"] = args.command
        if g is not None:
            report["graph"] = _graph_echo(g)
        if args.format == "json":
            print(_render(report))
        else:
            print("\n".join(lines()))
        return 0 if report.get("ok", True) else 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    """Console entry point: `run`, with stdout flushed here so a closed pipe is caught.

    A reader that closes stdout early (`| head`) gives exit 141 and an
    interrupt exit 130, as a shell reports those signals, with no traceback.
    """
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    except KeyboardInterrupt:
        code = 130
    sys.exit(code)


if __name__ == "__main__":
    main()
