"""Benchmark of the graphstates CLI: end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload sweep|scalars|expansions \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every op goes through the documented entry point
``graphstates.cli.run(argv)`` in this process, one at a time (a closed loop
with one client), with ``--format json`` and stdout captured.  The op list
comes from the seed (see workloads.py) and is repeated in passes until
``--seconds`` of op time have been measured; each op's time is its best
over the passes.  The first pass's outputs are checked (checks.py) between
ops, outside the timers; later passes must reproduce them byte for byte.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced passes for a third of
``--seconds`` are followed by traced passes for another third, and the
object holds the per-layer metrics.  A run record
and, for traced runs, the spans go to ``perfbench/out/``.  The exit code
is 0 when every check passed, 1 when an output was wrong, 2 on usage or
set-up errors.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from checks import CheckFailure, Checker, load_golden, reason_of  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DENSE_MAX_N, workload_ops  # noqa: E402

WORKLOADS = ("sweep", "scalars", "expansions")
CATALOG_GRAPHS = sum(1 << (n * (n - 1) // 2) for n in range(1, 6))  # balanced --max-n 5
SETUP_REPEATS = 2  # set-up samples before the first pass and after each pass
SETUP_MIN = 11  # set-up samples per run at least
# one small op per workload, run once after import (set-up) and before timing
WARMUP = {
    "sweep": ["verify", "--max-n", "3", "--samples", "0", "--format", "json"],
    "scalars": ["bias", "--graph", "cycle:8", "--format", "json"],
    "expansions": ["represent", "--graph", "bistar", "--format", "json"],
}
# Times, inside a fresh interpreter, the import of the package and one
# warm-up op; process creation and interpreter start are left out, because
# on a shared machine they vary far more than the program's own set-up.
SETUP_CHILD = """\
import time
start = time.perf_counter()
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import graphstates.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = graphstates.cli.run(sys.argv[2:])
print(time.perf_counter() - start)
sys.exit(code)
"""
# the two refusals the seed is known for; each gets its own per-layer count
KNOWN_REASONS = {
    "refused.global_sign_sum": "global sign needs a #^# parity sum",
    "refused.width_range": "width # out of range #..#",
}


class RunError(Exception):
    """The benchmark cannot run here (exit code 2, no result printed)."""


def import_package():
    """Import graphstates from this checkout's src/, never from elsewhere."""
    if not (SRC / "graphstates" / "__init__.py").is_file():
        raise RunError(f"no graphstates package under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphstates
    import graphstates.cli

    if Path(graphstates.__file__).resolve().parent != SRC / "graphstates":
        raise RunError(f"imported graphstates from {graphstates.__file__}, not {SRC}")
    return graphstates


def measure_setup(argv: list[str], repeats: int) -> list[float]:
    """Seconds a fresh interpreter takes to import the package and run one op."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), *argv],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RunError(f"set-up child failed: {proc.stderr[-500:]}")
        times.append(float(proc.stdout))
    return times


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    """Runs op lists through cli.run and keeps per-op outcomes."""

    def __init__(self, gs, ops, checker):
        self.cli = gs.cli
        self.ops = ops
        self.checker = checker
        self.first_outputs: list[str] | None = None
        self.failures: Counter = Counter()  # reason -> ops per pass
        self.unexpected: list[str] = []  # crashes and refusals not recorded
        self.outcomes: list[str] = []  # per op of the first pass: ok / refused / crashed
        self.graphs_checked = 0  # reported by verify
        self.calls_by_command: Counter = Counter()  # (function id, command) -> calls

    def execute(self, argv):
        out, err = io.StringIO(), io.StringIO()
        crash = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.run(list(argv))
            except (Exception, SystemExit) as exc:  # an escaped exception is a crash
                code, crash = None, f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue(), crash

    def run_pass(self, tracer=None) -> dict:
        """One pass over the op list; returns its timings."""
        first = self.first_outputs is None
        outputs = []
        durations = []
        out_bytes = 0
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
                before = list(tracer.calls)
            elapsed, code, out, err, crash = self.execute(op.argv)
            if tracer is not None:
                for fid, (b, a) in enumerate(zip(before, tracer.calls)):
                    if a != b:
                        self.calls_by_command[fid, op.command] += a - b
            durations.append(elapsed)
            out_bytes += len(out.encode())
            outputs.append(hashlib.sha256(out.encode()).hexdigest())
            if not first:
                if outputs[-1] != self.first_outputs[i]:
                    raise CheckFailure(f"output changed between passes: {op.key}")
                continue
            if crash is not None:
                self.outcomes.append("crashed")
                self.failures[f"crash {crash.partition(':')[0]}"] += 1
                self.unexpected.append(f"crashed ({crash[:200]}): {op.key}")
            elif code == 0:
                self.outcomes.append("ok")
                report = json.loads(out)
                self.checker.check(op, report)
                if op.command == "verify":
                    self.graphs_checked = report["graphs_checked"]
            elif code == 2:
                reason = reason_of(err)
                self.outcomes.append("refused")
                self.failures[reason] += 1
                if not self.checker.expected_refusal(op, reason):
                    self.unexpected.append(f"refused ({reason}): {op.key}")
            else:
                raise CheckFailure(f"exit code {code}: {op.key}\n{err[-2000:]}")
        if first:
            self.first_outputs = outputs
            self.out_bytes = out_bytes
        return {"durations": durations, "wall": sum(durations)}

    def run_for(self, seconds: float, tracer=None, after_pass=None) -> list[dict]:
        """Whole passes until their op time reaches seconds (two passes at least)."""
        passes = []
        while len(passes) < 2 or sum(p["wall"] for p in passes) < seconds:
            passes.append(self.run_pass(tracer))
            if after_pass is not None:
                after_pass()
        return passes


def best_of(passes: list[dict]) -> list[float]:
    """Each op's fastest time over the passes (best of N).

    The machine's speed drifts by tens of percent over seconds, and a
    drift only ever adds time, so the fastest of N repeats of the same op
    is far steadier from run to run than a mean or a median.
    """
    return [min(col) for col in zip(*(p["durations"] for p in passes))]


def end_to_end(workload: str, runner: Runner, passes: list[dict], setup: list[float]) -> dict:
    ok = [o == "ok" for o in runner.outcomes]
    best = best_of(passes)
    wall = sum(best)  # one pass of the op list at best-of-N speed
    latencies = [d for d, good in zip(best, ok) if good]
    if workload == "sweep":
        graphs = runner.graphs_checked + CATALOG_GRAPHS if all(ok) else 0
    else:
        graphs = sum(len(op.graphs) for op, good in zip(runner.ops, ok) if good)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "graphs_per_s": (graphs / wall, "graphs/s"),
        "ops_per_s": (len(latencies) / wall, "ops/s"),
        "op_p50_ms": (1000 * quantile(latencies, 50), "ms"),
        "op_p90_ms": (1000 * quantile(latencies, 90), "ms"),
        "ok_ratio": (sum(ok) / len(ok), "fraction"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }, {"latency_samples": len(latencies), "passes": len(passes),
        "pass_wall_s": [p["wall"] for p in passes], "setup_samples_s": setup}


def per_layer(workload, runner, tracer, untraced, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes, counts given per pass."""
    npass = len(traced)
    metrics: dict = {}
    absent: list[str] = []
    layers = tracer.layer_totals()
    for layer in ("cli", "graphs", "gf2", "stab", "xchains", "bias", "schmidt", "localize",
                  "oracle"):
        totals = layers.get(layer)
        if totals is None:
            absent.append(layer)
            totals = {"calls": 0, "self_s": 0.0, "errors": 0}
        metrics[f"{layer}.calls"] = (totals["calls"] / npass, "count")
        metrics[f"{layer}.self_s"] = (totals["self_s"] / npass, "s")
        metrics[f"{layer}.errors"] = (totals["errors"] / npass, "count")

    def fn(name, field):
        fid = tracer.fid(name)
        if fid is None:
            absent.append(name)
            return 0
        return getattr(tracer, field)[fid] / npass

    for name in ("stab.stabilizer_parity", "gf2.scatter", "xchains.global_sign", "gf2.rref"):
        metrics[f"{name}.calls"] = (fn(name, "calls"), "count")
    for name in ("oracle.dense_to_x", "oracle.dense_overlap", "oracle.dense_schmidt_rank",
                 "oracle.brute_xchains", "oracle.x_distribution", "graphs.canonical_form",
                 "xchains.global_sign", "gf2.rref", "graphs.parse_graph6",
                 "xchains.correlation_state", "schmidt.schmidt_vectors", "schmidt.schmidt_rank",
                 "localize.extract_code", "localize.decode"):
        metrics[f"{name}.self_s"] = (fn(name, "self_s"), "s")

    # dense_state_z calls per verified graph on n >= 2 (verify's graph counts per n)
    fid = tracer.fid("oracle.dense_state_z")
    per_graph = 0.0
    if fid is None:
        absent.append("oracle.dense_state_z")
    elif workload == "sweep":
        calls = sum(c for n, c in tracer.calls_by_n[fid].items() if n >= 2) / npass
        per_graph = calls / (runner.graphs_checked - 1)  # one graph has n = 1
    metrics["oracle.dense_state_z.calls_per_graph"] = (per_graph, "calls/graph")

    for name, commands in (("schmidt.partition_groups", ("schmidt", "localize")),
                           ("xchains.factorize", ("represent",))):
        ops = sum(1 for op in runner.ops if op.command in commands)
        fid = tracer.fid(name)
        if fid is None:
            absent.append(name)
        calls = sum(runner.calls_by_command[fid, c] for c in commands) / npass
        metrics[f"{name}.calls_per_op"] = (calls / ops if ops else 0.0, "calls/op")

    by_command = defaultdict(list)
    ok_by_command = Counter()
    for op, outcome, seconds in zip(runner.ops, runner.outcomes, best_of(untraced)):
        if outcome == "ok":
            by_command[op.command].append(1000 * seconds)
            ok_by_command[op.command] += 1
    for command in ("xchains", "represent", "bias", "overlap", "balanced", "schmidt",
                    "localize", "verify"):
        samples = by_command.get(command)
        metrics[f"cmd.{command}.p50_ms"] = (statistics.median(samples) if samples else 0.0, "ms")
        metrics[f"cmd.{command}.ok"] = (ok_by_command[command], "count")

    refused = sum(1 for o in runner.outcomes if o == "refused")
    crashed = sum(1 for o in runner.outcomes if o == "crashed")
    for metric, reason in KNOWN_REASONS.items():
        metrics[metric] = (runner.failures[reason], "count")
    metrics["refused"] = (refused, "count")
    metrics["crashed"] = (crashed, "count")
    metrics["failed_ratio"] = ((refused + crashed) / len(runner.ops), "fraction")
    metrics["out_bytes"] = (runner.out_bytes, "bytes")
    overhead = sum(best_of(traced)) / sum(best_of(untraced))
    metrics["trace_overhead"] = (overhead, "ratio")
    return metrics, absent


def commit_of(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = root / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "graphstates").glob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        gs = import_package()
        checker = Checker(load_golden(), gs)
        ops = workload_ops(args.workload, args.seed)
        warmup = WARMUP[args.workload]
        measure_setup(warmup, 1)  # the first start also writes bytecode caches
        # samples spread over the run see the machine's slow and fast spells
        setup = [] if args.trace else measure_setup(warmup, SETUP_REPEATS)
    except (RunError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runner = Runner(gs, ops, checker)
    runner.execute(warmup)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit_of(ROOT), "python": platform.python_version(),
        "nproc": os.cpu_count(), "source_lines": source_lines(),
        "ops_per_pass": len(ops), "ops_by_command": dict(Counter(op.command for op in ops)),
        "ops_dense_checked": sum(1 for op in ops if op.n <= DENSE_MAX_N),
    }
    try:
        if args.trace:
            tracer = Tracer(gs)
            untraced = runner.run_for(args.seconds / 3)
            tracer.install()
            try:
                traced = runner.run_for(args.seconds / 3, tracer)
            finally:
                tracer.uninstall()
            metrics, absent = per_layer(args.workload, runner, tracer, untraced, traced)
            passes = untraced + traced
            record.update(absent=absent, traced_passes=len(traced), untraced_passes=len(untraced),
                          spans=len(tracer.spans), functions_per_pass={
                              name: {"calls": tracer.calls[fid] / len(traced),
                                     "self_s": tracer.self_s[fid] / len(traced),
                                     "errors": tracer.errors[fid] / len(traced)}
                              for fid, name in enumerate(tracer.names) if tracer.calls[fid]})
        else:
            passes = runner.run_for(
                args.seconds, after_pass=lambda: setup.extend(measure_setup(warmup, SETUP_REPEATS)))
            setup += measure_setup(warmup, max(0, SETUP_MIN - len(setup)))
            metrics, info = end_to_end(args.workload, runner, passes, setup)
            record.update(info)
    except (RunError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}")
        print(json.dumps({"correct": False, "attempted": max(1, len(runner.outcomes)),
                          "failed": len(runner.unexpected), "metrics": {}}))
        return 1

    outcomes = Counter(runner.outcomes)
    record.update(
        outcomes_per_pass=dict(outcomes),
        failures_by_reason={"base_ops_per_pass": len(ops), **runner.failures},
        unexpected_failures=runner.unexpected,
        unrecorded_successes=checker.unrecorded_successes,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if args.trace:
        tracer.write_spans(OUT / f"spans-{name}.jsonl.gz")

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per pass, "
          f"{len(passes)} passes, {outcomes['ok']} ok / {outcomes['refused']} refused / "
          f"{outcomes['crashed']} crashed per pass")
    for reason, count in sorted(runner.failures.items()):
        print(f"  failed {count}/{len(ops)} per pass: {reason}")
    for line in runner.unexpected:
        print(f"  unexpected: {line}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    attempted = len(ops) * len(passes)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": len(runner.unexpected) * len(passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
