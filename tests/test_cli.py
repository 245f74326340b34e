"""Command-line surface: subcommands, formats, exit codes."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphstates

from graphstates import cli
from graphstates.cli import load_graph, run
from graphstates.gf2 import mask_of, rref
from graphstates.graphs import emit_graph6, from_edges, named
from reference import string_to_mask


def run_json(capsys, argv):
    code = run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_load_graph_variants(tmp_path):
    assert load_graph("star:3") == named("star:3")
    path = tmp_path / "triangle.edges"
    path.write_text("3\n1 2\n2 3\n1 3\n")
    assert load_graph(f"@{path}") == named("cycle:3")
    assert load_graph("g6:" + emit_graph6(named("cycle:3"))) == named("cycle:3")
    with pytest.raises(ValueError):
        load_graph("@/does/not/exist.edges")
    with pytest.raises(ValueError):
        load_graph("nosuchgraph")


def test_non_integer_edge_line_names_the_line(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("3\n1 x\n")
    assert run(["bias", "--graph", f"@{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad edge line '1 x'\n"


def test_undecodable_graph_file_names_the_file(tmp_path, capsys):
    path = tmp_path / "binary.edges"
    path.write_bytes(b"3\n1 2\xff\n")
    assert run(["bias", "--graph", f"@{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: cannot read graph file {str(path)!r}: 'utf-8' codec")


def test_xchains_star4(capsys):
    code, report = run_json(capsys, ["xchains", "--graph", "star:4"])
    assert code == 0
    rows = [string_to_mask(g["bits"]) for g in report["generators"]]
    assert rref(rows, 4) == rref([mask_of([2, 3]), mask_of([2, 4])], 4)
    assert report["x_gamma"] == "0000"


def test_represent_k4minus1_text(capsys):
    code = run(["represent", "--graph", "k4minus1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1/2(|1000> + |0010> + |0101> - |1111>)" in out
    assert "fundamental string |1000>" in out
    assert "alpha" in out


def test_represent_json_roundtrip(capsys):
    code, report = run_json(capsys, ["represent", "--graph", "house"])
    assert code == 0
    assert report == json.loads(json.dumps(report))
    assert report["expansion"]["half_log_norm"] == 4
    assert len(report["expansion"]["terms"]) == 16


def test_bias_strings(capsys):
    code, report = run_json(capsys, ["bias", "--graph", "cycle:3"])
    assert code == 0
    assert report["bias"] == {"value": "0", "approx": 0.0}
    code, report = run_json(capsys, ["bias", "--graph", "star:3"])
    assert report["bias"]["value"] == "+2^-2/2"
    assert report["bias"]["approx"] == 0.5


def test_overlap_command(capsys):
    code, report = run_json(
        capsys, ["overlap", "--graph", "cycle:3", "--graph2", "empty:3"]
    )
    assert code == 0
    assert report["overlap"]["value"] == "0"


def test_global_sign_with_24_free_vertices(capsys):
    assert run(["bias", "--graph", "complete:24"]) == 0
    assert "+2^-24/2" in capsys.readouterr().out
    assert run(["overlap", "--graph", "complete:24", "--graph2", "empty:24"]) == 0
    assert "+2^-24/2" in capsys.readouterr().out
    code, report = run_json(capsys, ["xchains", "--graph", "complete:24"])
    assert code == 0
    assert report["alpha"] == 1


def test_balanced_command(capsys):
    code, report = run_json(capsys, ["balanced", "--max-n", "3"])
    assert code == 0
    assert len(report["classes"]) == 1
    entry = report["classes"][0]
    assert entry["n"] == 3
    assert entry["witness_edge_count"] % 2 == 1


def test_schmidt_command(capsys):
    code, report = run_json(
        capsys, ["schmidt", "--graph", "house", "--part-a", "1,2,3"]
    )
    assert code == 0
    assert report["rank"] == 2
    assert report["geometric_measure"] == 1
    assert report["coeff"] == "2^-1/2"
    assert len(report["terms"]) == 2
    assert report["partition"] == {"a": [1, 2, 3], "b": [4, 5]}


def test_localize_command(capsys):
    code, report = run_json(
        capsys,
        [
            "localize", "--graph", "bistar", "--part-a", "1,2,3",
            "--errors", "3", "--seed", "7",
        ],
    )
    assert code == 0
    assert report["success"] is True
    assert report["corrected"] in ("000", "111")
    assert report["noisy"] != report["corrected"]


def test_schmidt_past_the_old_width_cap(capsys):
    part_a = ",".join(map(str, range(1, 13)))
    code, report = run_json(capsys, ["schmidt", "--graph", "cycle:24", "--part-a", part_a])
    assert code == 0
    assert report["k"] == 2
    assert report["rank"] == len(report["terms"]) == 4


_MATCHING_32 = "g6:" + emit_graph6(from_edges(32, [(i, i + 16) for i in range(1, 17)]))


@pytest.mark.parametrize(
    "graph, part_a, k",
    [
        ("path:32", "1,2", 1),  # dim k_b = 30
        (_MATCHING_32, ",".join(map(str, range(1, 17))), 16),  # dim k_b = 16
    ],
    ids=["path32", "matching32"],
)
def test_schmidt_factor_terms_refused_before_any_is_built(monkeypatch, capsys, graph, part_a, k):
    import graphstates.schmidt as schmidt
    import graphstates.xchains as xchains

    def never(*args):
        raise RuntimeError("a Schmidt factor was expanded")

    monkeypatch.setattr(schmidt, "correlation_state", never)
    monkeypatch.setattr(xchains, "correlation_state", never)
    assert run(["schmidt", "--graph", graph, "--part-a", part_a]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: Schmidt decomposition with cut rank k={k} ")


def test_verify_command_ok(capsys):
    code, report = run_json(
        capsys, ["verify", "--max-n", "4", "--samples", "5", "--seed", "3"]
    )
    assert code == 0
    assert report["ok"] is True
    assert report["graphs_checked"] == 75
    assert report["mismatches"] == []


def test_verify_deterministic(capsys):
    _, first = run_json(capsys, ["verify", "--max-n", "6", "--samples", "4", "--seed", "9"])
    _, second = run_json(capsys, ["verify", "--max-n", "6", "--samples", "4", "--seed", "9"])
    assert first == second


def test_verify_mismatch_exit_code(monkeypatch, capsys):
    import graphstates.cli as cli

    monkeypatch.setattr(
        cli, "run_verification", lambda max_n, samples, seed: (1, ["fake"], [])
    )
    assert run(["verify", "--max-n", "1"]) == 1
    assert "MISMATCH: fake" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-n", "15", "--samples", "100"],
        ["verify", "--samples", "-3"],
        ["verify", "--max-n", "0"],
        ["balanced", "--max-n", "6"],
        ["balanced", "--max-n", "0"],
    ],
)
def test_bad_sweep_arguments_refused_before_any_work(monkeypatch, capsys, argv):
    import graphstates.bias as bias
    import graphstates.verify as verify

    def never(*args):
        raise RuntimeError("work started on refused arguments")

    monkeypatch.setattr(verify, "_verify_one", never)
    monkeypatch.setattr(bias, "enumerate_balanced", never)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_smallest_verify_sweeps_stay_valid(capsys):
    code, report = run_json(capsys, ["verify", "--max-n", "3", "--samples", "0"])
    assert (code, report["graphs_checked"], report["ok"]) == (0, 11, True)
    code, report = run_json(capsys, ["verify", "--max-n", "1"])
    assert (code, report["graphs_checked"], report["ok"]) == (0, 1, True)


def test_localize_decoding_tie_exits_cleanly(capsys):
    # distance-2 code: any single error is equidistant from both codewords
    code = run(
        ["localize", "--graph", "path:3", "--part-a", "1,3", "--errors", "1"]
    )
    assert code == 2
    assert "equidistant" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert run(["bias", "--graph", "nosuchgraph"]) == 2
    assert run(["schmidt", "--graph", "house", "--part-a", "1,1,2"]) == 2
    assert run(["schmidt", "--graph", "house", "--part-a", "1,9"]) == 2
    assert run(["localize", "--graph", "house", "--part-a", "1,2,3"]) == 2
    capsys.readouterr()
    for argv in (["bias"], [], ["nosuchcommand"], ["bias", "--graph", "cycle:3", "--bogus"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
    with pytest.raises(SystemExit) as exc:
        run(["bias", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: graphstates bias")


# command -> (its required flags with a value each, then its optional flags at their defaults)
_PARSER_PINS = {
    "xchains": ({"--graph": "house"}, {}),
    "represent": ({"--graph": "house"}, {}),
    "bias": ({"--graph": "house"}, {}),
    "overlap": ({"--graph": "house", "--graph2": "bistar"}, {}),
    "balanced": ({}, {"max_n": 5}),
    "schmidt": ({"--graph": "house", "--part-a": "1"}, {}),
    "localize": ({"--graph": "house", "--part-a": "1"}, {"errors": "", "seed": 0}),
    "verify": ({}, {"max_n": 8, "samples": 30, "seed": 0}),
}


@pytest.mark.parametrize("command", list(_PARSER_PINS))
def test_each_command_parses_as_pinned(capsys, command):
    required, defaults = _PARSER_PINS[command]
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: graphstates {command} ")
    argv = [command] + [word for pair in required.items() for word in pair]
    parsed = vars(cli.build_parser().parse_args(argv))
    del parsed["handler"]
    given = {flag[2:].replace("-", "_"): value for flag, value in required.items()}
    assert parsed == {"command": command, "format": "text", **given, **defaults}
    # leaving out all of the required flags, and each one alone
    for missing in {tuple(required), *((flag,) for flag in required)} if required else ():
        kept = [word for flag, value in required.items() if flag not in missing
                for word in (flag, value)]
        assert run([command] + kept) == 2
        message = "error: the following arguments are required: " + ", ".join(missing)
        assert capsys.readouterr() == ("", message + "\n")


_REUSE_SEQUENCE = [
    ["bias"],
    ["localize", "--graph", "house", "--part-a", "1", "--seed", "5"],
    ["localize", "--graph", "house", "--part-a", "1"],
    ["verify", "--max-n", "3"],
    ["bias", "--graph", "cycle:3"],
]


def _outcomes(capsys, sequence):
    outcomes = []
    for argv in sequence:
        code = run(argv)
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


def test_shared_parser_runs_like_a_fresh_one(monkeypatch, capsys):
    shared = _outcomes(capsys, _REUSE_SEQUENCE)
    code, out, err = shared[0]
    assert (code, out) == (2, "")
    assert err == "error: the following arguments are required: --graph\n"
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert _outcomes(capsys, _REUSE_SEQUENCE) == shared


def test_run_builds_no_parser_after_its_first_call(monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert run(["bias", "--graph", "cycle:3"]) == 0
    assert built  # the first call builds the parser through the spy
    built.clear()
    for _ in range(19):
        assert run(["bias", "--graph", "cycle:3"]) == 0
    assert built == []


def test_text_output_default(capsys):
    assert run(["bias", "--graph", "cycle:3"]) == 0
    out = capsys.readouterr().out
    assert "bias degree: 0" in out


def test_internal_error_exits_3_without_traceback(monkeypatch, capsys):
    import graphstates.schmidt as schmidt

    def broken(g, part):
        raise AssertionError("partition groups out of step")

    monkeypatch.setattr(schmidt, "partition_groups", broken)
    assert run(["schmidt", "--graph", "house", "--part-a", "1,2,3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: partition groups out of step\n"
    assert "Traceback" not in captured.err


def _cli_env():
    src = str(Path(graphstates.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _python_m(*argv):
    return subprocess.run(
        [sys.executable, "-m", "graphstates.cli", *argv],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
    )


def test_python_m_runs_the_cli():
    done = _python_m("bias", "--graph", "cycle:3")
    assert done.returncode == 0
    assert done.stdout == "bias degree: 0 (approx 0)\n"
    done = _python_m("bias", "--graph", "cycle:x")
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr


def test_closed_stdout_exits_141_without_traceback():
    # 4,096 terms print ~280 kB, far more than a pipe holds, so the CLI is
    # still writing when the reader closes the pipe after one line
    argv = ["represent", "--graph", "complete:12", "--format", "json"]
    with subprocess.Popen(
        [sys.executable, "-m", "graphstates.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def test_interrupt_exits_130_without_traceback(monkeypatch, capsys):
    def interrupted(argv=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run", interrupted)
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 130
    assert capsys.readouterr() == ("", "")
