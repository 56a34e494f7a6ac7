"""End-to-end CLI behavior: exit codes, determinism, round-trips."""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hypercurv import load_document, parse_document, serialize_document
from hypercurv.cli import build_parser, main
from hypercurv.walk import measure_directed_in

H4_DOC = {
    "flavor": "undirected",
    "vertices": ["x1", "x2", "x3", "x4"],
    "hyperedges": [
        {"vertices": ["x1", "x2", "x3"], "weight": "1"},
        {"vertices": ["x1", "x4"], "weight": "1"},
    ],
}


H4_FILE = Path(__file__).resolve().parents[1] / "data" / "h4.json"


@pytest.fixture
def h4_path(tmp_path):
    path = tmp_path / "h4.json"
    path.write_text(json.dumps(H4_DOC))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys, h4_path):
    code, out, _ = _run(capsys, ["validate", h4_path])
    assert code == 0
    assert "flavor=undirected" in out


def test_validate_hyperloop(capsys, tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(
        json.dumps(
            {
                "flavor": "directed",
                "n_vertices": 2,
                "hyperedges": [{"tail": [0], "head": [0], "weight": 1}],
            }
        )
    )
    code, _, err = _run(capsys, ["validate", str(path)])
    assert code == 2
    assert "HyperloopInLooplessModel" in err


def test_validate_disconnected(capsys, tmp_path):
    path = tmp_path / "disc.json"
    path.write_text(
        json.dumps(
            {
                "flavor": "undirected",
                "n_vertices": 4,
                "hyperedges": [
                    {"vertices": [0, 1], "weight": 1},
                    {"vertices": [2, 3], "weight": 1},
                ],
            }
        )
    )
    code, _, err = _run(capsys, ["validate", str(path)])
    assert code == 2
    assert "NotConnected" in err


def test_validate_parse_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"flavor": "undirected", "n_vertices": 2, "hyperedges": [{"vertices": [0, 1], "weight": "x"}]}')
    code, _, err = _run(capsys, ["validate", str(path)])
    assert code == 2
    assert "ParseError" in err and "weight" in err


def test_curvature_edge_and_pair(capsys, h4_path):
    code, out, _ = _run(capsys, ["curvature", h4_path, "--edge", "h1", "--variant", "sum"])
    assert code == 0
    assert "lly=5/6" in out
    code, out, _ = _run(capsys, ["curvature", h4_path, "--pair", "x2,x3"])
    assert code == 0
    assert "lly=3/2" in out


def test_curvature_same_pair_rejected(capsys, h4_path):
    code, _, err = _run(capsys, ["curvature", h4_path, "--pair", "x2,x2"])
    assert code == 2
    assert "SamePair" in err


def test_curvature_unknown_target(capsys, h4_path):
    code, _, err = _run(capsys, ["curvature", h4_path, "--edge", "h9"])
    assert code == 2
    assert "UnknownTarget" in err


def test_curvature_exit_3_on_divergence(capsys, tmp_path):
    path = tmp_path / "div.json"
    path.write_text(
        json.dumps(
            {
                "flavor": "directed",
                "n_vertices": 3,
                "hyperedges": [
                    {"tail": [0, 1], "head": [2], "weight": 5},
                    {"tail": [2], "head": [0], "weight": 1},
                    {"tail": [2], "head": [1], "weight": 5},
                    {"tail": [0], "head": [2], "weight": 1},
                ],
            }
        )
    )
    code, _, err = _run(capsys, ["curvature", str(path), "--edge", "h1"])
    assert code == 3
    assert "NoStabilization" in err


@pytest.mark.parametrize(
    "name, edge, kappa_at_one",
    [("late_limit_directed.json", "h7", "-4"), ("weighted_oriented.json", "h6", "-1/8")],
)
def test_divergence_names_the_target_as_stdout_does(capsys, name, edge, kappa_at_one):
    path = str(H4_FILE.with_name(name))
    err = (
        f"NoStabilization: target edge {edge} has curvature {kappa_at_one} at alpha=1; "
        "the normalized curve decreases without bound\n"
    )
    for argv in (["curvature", path, "--all"], ["sweep", path, "--edge", edge]):
        assert _run(capsys, argv) == (3, "", err), argv


def test_bounds_h4_all_hold(capsys, h4_path):
    code, out, _ = _run(capsys, ["bounds", h4_path])
    assert code == 0
    assert "violated: 0" in out
    assert "not-applicable: 0" in out
    code, _, _ = _run(capsys, ["bounds", h4_path, "--strict"])
    assert code == 0  # nothing inapplicable on this instance


def test_bounds_strict_flags_not_applicable(capsys, tmp_path):
    path = tmp_path / "path5.json"
    path.write_text(
        json.dumps(
            {
                "flavor": "undirected",
                "n_vertices": 5,
                "hyperedges": [{"vertices": [i, i + 1], "weight": 1} for i in range(4)],
            }
        )
    )
    code, out, _ = _run(capsys, ["bounds", str(path)])
    assert code == 0  # skipped hypotheses do not fail a plain run
    code, out, _ = _run(capsys, ["bounds", str(path), "--strict"])
    assert code == 1


def test_sweep_normalized_column(capsys, h4_path):
    code, out, _ = _run(capsys, ["sweep", h4_path, "--pair", "x2,x3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "alpha,kappa,normalized"
    rows = [line.split(",") for line in lines[2:]]
    assert rows[0][0] == "0" and rows[0][2] == "1/2"  # g(0) = kappa_0
    normalized = [Fraction(r[2]) for r in rows]
    assert all(a <= b for a, b in zip(normalized, normalized[1:]))
    tail = [Fraction(r[2]) for r in rows if Fraction(r[0]) >= Fraction(1, 3)]
    assert all(g == Fraction(3, 2) for g in tail)
    assert rows[-1][0] == "3/4"  # stabilization row


def test_distances_csv(capsys, h4_path):
    code, out, _ = _run(capsys, ["distances", h4_path, "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# mode=exact"
    assert "x2,x4,2" in lines


def test_measure_json(capsys, h4_path):
    code, out, _ = _run(capsys, ["measure", h4_path, "--vertex", "x1", "--alpha", "1/2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["mass"] == {"x1": "1/2", "x2": "1/8", "x3": "1/8", "x4": "1/4"}


def test_float_mode_stamped(capsys, h4_path):
    code, out, _ = _run(capsys, ["curvature", h4_path, "--pair", "x2,x3", "--float", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "float"
    assert abs(float(payload["results"][0]["lly"]) - 1.5) <= 1e-9


def test_byte_identical_across_runs_and_parallelism(capsys, h4_path):
    outputs = []
    for argv in (
        ["curvature", h4_path, "--all", "--format", "json"],
        ["curvature", h4_path, "--all", "--format", "json"],
        ["curvature", h4_path, "--all", "--format", "json", "--parallel", "4"],
    ):
        code, out, _ = _run(capsys, argv)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_document_round_trip():
    doc = parse_document(json.dumps(H4_DOC))
    again = parse_document(json.dumps(serialize_document(doc)))
    assert serialize_document(doc) == serialize_document(again)
    assert again.hypergraph.edges == doc.hypergraph.edges


def test_document_round_trip_oriented_symmetrize():
    raw = {
        "flavor": "oriented",
        "vertices": ["a", "b", "c"],
        "symmetrize": True,
        "hyperedges": [
            {"tail": ["a"], "head": ["b"], "weight": "1/2"},
            {"tail": ["b"], "head": ["c"], "weight": 1},
        ],
    }
    doc = parse_document(json.dumps(raw))
    assert doc.hypergraph.n_edges == 4
    again = parse_document(json.dumps(serialize_document(doc)))
    assert serialize_document(again) == serialize_document(doc)


def test_tol_is_a_usage_error(capsys, h4_path):
    """``--tol`` never changed a result and is gone: argparse refuses it, exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(["curvature", h4_path, "--pair", "x2,x3", "--tol", "0.5"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments: --tol 0.5" in out.err


# A valid run of each subcommand on data/h4.json, after the path.
VALID_RUNS = {
    "validate": [],
    "distances": [],
    "measure": ["--vertex", "x1"],
    "curvature": ["--all"],
    "bounds": [],
    "sweep": ["--pair", "x2,x3"],
}
# What each option that a subcommand does not read was given before it was refused.
REFUSED_VALUES = {
    "--alpha": ["1/3"],
    "--alpha-grid": ["0,1"],
    "--variant": ["max"],
    "--exact": [],
    "--float": [],
    "--format": ["json"],
    "--parallel": ["2"],
    "--strict": [],
    "--direction": ["in"],
}
# The options each subcommand does not read: 32 pairs.
REFUSED = [
    (command, flag)
    for command, flags in {
        "validate": [flag for flag in REFUSED_VALUES if flag != "--direction"],
        "distances": ["--alpha", "--alpha-grid", "--variant", "--exact", "--parallel", "--strict"],
        "measure": [
            "--alpha-grid", "--variant", "--exact", "--parallel", "--strict", "--format",
            "--direction",
        ],
        "curvature": ["--alpha", "--exact", "--strict"],
        "bounds": ["--alpha-grid", "--exact", "--parallel"],
        "sweep": ["--alpha", "--exact", "--parallel", "--strict", "--format"],
    }.items()
    for flag in flags
]


@pytest.mark.parametrize("command, flag", REFUSED, ids=[" ".join(c) for c in REFUSED])
def test_an_option_the_subcommand_does_not_read_is_a_usage_error(capsys, command, flag):
    """Each of these options changed nothing on its subcommand, so argparse refuses it.

    Abbreviations are off too: ``curvature --alpha`` is not read as ``--alpha-grid``.
    After the path or before it, the error comes under the subcommand's
    usage line and names the option with the value typed for it, never the
    path.
    """
    argv = [command, str(H4_FILE), *VALID_RUNS[command]]
    assert _run(capsys, argv)[0] == 0
    typed = [flag, *REFUSED_VALUES[flag]]
    for refused in ([*argv, *typed], [command, *typed, str(H4_FILE), *VALID_RUNS[command]]):
        with pytest.raises(SystemExit) as exc:
            main(refused)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"usage: hypercurv {command} ")
        assert out.err.endswith(
            f"hypercurv {command}: error: unrecognized arguments: {' '.join(typed)}\n"
        )
        assert str(H4_FILE) not in out.err


def test_a_refused_option_with_its_value_in_one_token(capsys):
    """``--format=json`` is refused as one token; after ``--`` every token is the path's."""
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--format=json", str(H4_FILE), "--pair", "x2,x3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("hypercurv sweep: error: unrecognized arguments: --format=json\n")
    assert _run(capsys, ["validate", "--", str(H4_FILE)])[0] == 0


@pytest.mark.parametrize(
    "tokens, named",
    [
        (["--bogus", "PATH", "--all"], "--bogus"),
        (["--bogus", "PATH", "--format", "json"], "--bogus"),
        (["--tol", "0.5", "PATH"], "--tol 0.5"),
        (["PATH", "--tol", "0.5"], "--tol 0.5"),
    ],
    ids=["bogus-all", "bogus-format", "tol-before", "tol-after"],
)
def test_an_undeclared_option_takes_no_path_as_its_value(capsys, tokens, named):
    """An option no subcommand declares takes the next token as its value only
    when the path came before it or another positional comes after that
    token; a declared option's value is no positional."""
    argv = ["curvature", *(str(H4_FILE) if t == "PATH" else t for t in tokens)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.endswith(f"hypercurv curvature: error: unrecognized arguments: {named}\n")


@pytest.mark.parametrize("flags", [["--edge", "h1"], ["--index", "0"], ["--side", "head"]])
def test_measure_takes_one_origin(capsys, flags):
    """``--vertex`` excludes ``--edge``, and ``--side``/``--index`` need ``--edge``."""
    try:
        code = main(["measure", str(H4_FILE), "--vertex", "x1", *flags])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err


# For each option a subcommand declares: a document, a run without the option,
# and the option with its value. Adding the option must change stdout or the
# exit code. --parallel (validated, never acted on) is the deliberate
# exception, and --stats writes only to stderr.
EFFECTS = {
    ("distances", "--float"): ("h4.json", [], ["--float"]),
    ("distances", "--format"): ("h4.json", [], ["--format", "json"]),
    ("measure", "--alpha"): ("h4.json", ["--vertex", "x1"], ["--alpha", "1/3"]),
    ("measure", "--float"): ("h4.json", ["--vertex", "x1"], ["--float"]),
    ("measure", "--vertex"): ("h4.json", [], ["--vertex", "x1"]),
    ("measure", "--edge"): ("late_limit_directed.json", [], ["--edge", "h6"]),
    ("measure", "--side"): ("late_limit_directed.json", ["--edge", "h6"], ["--side", "head"]),
    ("measure", "--index"): ("late_limit_directed.json", ["--edge", "h6"], ["--index", "0"]),
    ("curvature", "--alpha-grid"): (
        "h4.json", ["--pair", "x2,x3", "--format", "json"], ["--alpha-grid", "0,1"]
    ),
    ("curvature", "--variant"): ("h4.json", ["--edge", "h1"], ["--variant", "max"]),
    ("curvature", "--float"): ("h4.json", ["--all"], ["--float"]),
    ("curvature", "--format"): ("h4.json", ["--all"], ["--format", "csv"]),
    ("curvature", "--pair"): ("h4.json", [], ["--pair", "x2,x3"]),
    ("curvature", "--edge"): ("h4.json", [], ["--edge", "h1"]),
    ("curvature", "--all"): ("h4.json", [], ["--all"]),
    ("bounds", "--alpha"): ("h4.json", [], ["--alpha", "1/3"]),
    ("bounds", "--variant"): ("h4.json", [], ["--variant", "max"]),
    ("bounds", "--float"): ("h4.json", [], ["--float"]),
    ("bounds", "--format"): ("h4.json", [], ["--format", "json"]),
    ("bounds", "--strict"): ("weighted_oriented.json", [], ["--strict"]),
    ("sweep", "--alpha-grid"): ("h4.json", ["--pair", "x2,x3"], ["--alpha-grid", "0,1"]),
    ("sweep", "--variant"): ("h4.json", ["--edge", "h1"], ["--variant", "max"]),
    ("sweep", "--float"): ("h4.json", ["--pair", "x2,x3"], ["--float"]),
    ("sweep", "--pair"): ("h4.json", [], ["--pair", "x2,x3"]),
    ("sweep", "--edge"): ("h4.json", [], ["--edge", "h1"]),
}


def test_every_declared_option_acts(capsys):
    """Walk each subcommand's parser: an option it declares changes stdout or the exit code."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = set()
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            flags = [f for f in action.option_strings if f.startswith("--")]
            if flags and flags[0] not in ("--help", "--stats", "--parallel"):
                declared.add((command, flags[0]))
    assert declared == set(EFFECTS)
    for (command, flag), (name, base, extra) in EFFECTS.items():
        argv = [command, str(H4_FILE.with_name(name)), *base]
        without, with_flag = _run(capsys, argv)[:2], _run(capsys, [*argv, *extra])[:2]
        assert without != with_flag, (command, flag)


def test_an_edge_given_by_index_is_named_as_the_document_names_it(capsys):
    """``--edge 0`` names hyperedge h1 as ``--all`` does, on stdout and in exit 3's line."""
    h4 = str(H4_FILE)
    code, out, _ = _run(capsys, ["curvature", h4, "--edge", "0", "--edge", "h1"])
    assert code == 0
    assert out.splitlines()[1:] == ["edge h1: lly=5/6 stabilization_alpha=3/4"] * 2
    code, out, _ = _run(capsys, ["sweep", h4, "--edge", "0"])
    assert (code, out.splitlines()[0]) == (0, "# mode=exact target=edge h1")
    code, out, err = _run(capsys, ["curvature", str(LATE_LIMIT_FILE), "--edge", "6"])
    assert (code, out) == (3, "")
    assert err.startswith("NoStabilization: target edge h7 has curvature -4 at alpha=1;")


def test_threads_variable_is_ignored(capsys, h4_path, monkeypatch):
    """``HYPERCURV_THREADS`` never changed a result and is no longer read."""
    argv = ["curvature", h4_path, "--all", "--format", "json"]
    base = _run(capsys, argv)
    monkeypatch.setenv("HYPERCURV_THREADS", "lots")
    assert _run(capsys, argv) == base
    assert base[0] == 0


def test_bad_alpha_grid_rejected(capsys, h4_path):
    code, _, err = _run(capsys, ["curvature", h4_path, "--pair", "x2,x3", "--alpha-grid", "0,1.5"])
    assert code == 2
    assert "AlphaOutOfRange" in err


def test_measure_directed_constituent(capsys, tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(
        json.dumps(
            {
                "flavor": "directed",
                "vertices": ["a", "b", "c"],
                "hyperedges": [
                    {"tail": ["a"], "head": ["b"], "weight": 1},
                    {"tail": ["b"], "head": ["c"], "weight": 1},
                    {"tail": ["c"], "head": ["a"], "weight": 1},
                ],
            }
        )
    )
    code, out, _ = _run(
        capsys,
        ["measure", str(path), "--edge", "h1", "--side", "head", "--index", "0", "--alpha", "1/4"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mass"] == {"b": "1/4", "c": "3/4"}
    assert payload["total"] == "1"
    code, out, _ = _run(capsys, ["measure", str(path), "--edge", "h1", "--side", "tail"])
    assert code == 0
    assert json.loads(out)["total"] == "1"


LATE_LIMIT_FILE = H4_FILE.with_name("late_limit_directed.json")


def test_measure_tail_constituent_matches_the_library(capsys):
    code, out, _ = _run(
        capsys,
        ["measure", str(LATE_LIMIT_FILE), "--edge", "h6", "--side", "tail", "--index", "0"],
    )
    assert code == 0
    hg = load_document(str(LATE_LIMIT_FILE)).hypergraph
    mu = measure_directed_in(hg, 5, 0, Fraction(1, 2))
    assert json.loads(out) == {
        "mode": "exact",
        "alpha": "1/2",
        "mass": {f"x{v + 1}": str(m) for v, m in sorted(mu.mass.items())},
        "total": "1/4",
    }


@pytest.mark.parametrize(
    "argv, error",
    [
        (["curvature", "{h4}", "--all", "--parallel", "0"], "ParseError"),
        (["curvature", "{h4}", "--pair", "x1"], "UnknownTarget"),
        (["curvature", "{h4}"], "UnknownTarget"),
        (["sweep", "{h4}", "--pair", "x1,x2", "--edge", "h1"], "UnknownTarget"),
        (["measure", "{late}", "--vertex", "x1"], "UnsupportedFlavor"),
        (["measure", "{h4}", "--edge", "h1"], "UnsupportedFlavor"),
        (["measure", "{h4}"], "UnknownTarget"),
    ],
    ids=[
        "parallel-0",
        "pair-without-comma",
        "curvature-without-target",
        "sweep-two-targets",
        "measure-vertex-directed",
        "measure-edge-undirected",
        "measure-without-target",
    ],
)
def test_usage_errors_exit_2(capsys, argv, error):
    argv = [a.format(h4=H4_FILE, late=LATE_LIMIT_FILE) for a in argv]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"{error}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["distances"], ["curvature", "--all"], ["bounds"]])
def test_running_out_of_memory_exits_2(capsys, monkeypatch, h4_path, argv):
    """A document too large for memory is huge input: exit 2 and one line
    on stderr, not exit 1 (a violated verdict) with a traceback."""

    def exhausted(hg):
        raise MemoryError

    monkeypatch.setattr("hypercurv.cli.all_pairs_distances", exhausted)
    code, out, err = _run(capsys, [argv[0], h4_path, *argv[1:]])
    assert (code, out, err) == (2, "", "MemoryError: out of memory\n")


# A value past the float range: 10**400 as a distance, and its inverse as a ratio.
FLOAT_RANGE_DOCS = {
    "edge": {
        "flavor": "undirected",
        "vertices": ["a", "b"],
        "hyperedges": [{"vertices": ["a", "b"], "weight": "1e400"}],
    },
    "path": {
        "flavor": "undirected",
        "vertices": ["a", "b", "c"],
        "hyperedges": [
            {"vertices": ["a", "b"], "weight": "1e-400"},
            {"vertices": ["b", "c"], "weight": "1e400"},
        ],
    },
}


@pytest.mark.parametrize(
    "doc, argv",
    [
        ("edge", ["distances"]),
        ("edge", ["bounds"]),
        ("path", ["curvature", "--all"]),
        ("path", ["sweep", "--pair", "a,b"]),
    ],
)
def test_a_value_beyond_the_float_range_exits_2(capsys, tmp_path, doc, argv):
    """``--float`` cannot print such a value: exit 2 and one line on stderr,
    not exit 1 (a violated verdict) with a traceback. The exact run prints it."""
    path = tmp_path / f"{doc}.json"
    path.write_text(json.dumps(FLOAT_RANGE_DOCS[doc]))
    argv = [argv[0], str(path), *argv[1:]]
    assert _run(capsys, argv)[0] == 0
    code, out, err = _run(capsys, [*argv, "--float"])
    assert (code, out) == (2, "")
    assert err == (
        "FloatRange: a value is beyond the float range; without --float it prints exactly\n"
    )


def test_distances_json_symmetry_flag(capsys, h4_path):
    code, out, _ = _run(capsys, ["distances", h4_path, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["symmetric"] is True
    assert payload["distances"]["x2"]["x4"] == "2"


def test_bounds_csv_format(capsys, h4_path):
    code, out, _ = _run(capsys, ["bounds", h4_path, "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# mode=exact"
    assert lines[1] == "name,target,lhs,rhs,status,witness"
    assert all("violated" not in line for line in lines[2:])


@pytest.mark.parametrize(
    "flags",
    [["--alpha", "abc"], ["--alpha", "1/0"], ["--alpha-grid", "0,x"], ["--alpha", "1e100000"]],
)
def test_unreadable_alpha_is_a_parse_error(capsys, h4_path, flags):
    # bounds reads --alpha, curvature reads --alpha-grid.
    argv = ["curvature", h4_path, "--pair", "x2,x3"]
    if flags[0] == "--alpha":
        argv = ["bounds", h4_path]
    code, out, err = _run(capsys, [*argv, *flags])
    assert code == 2
    assert out == ""
    assert err.startswith("ParseError: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("grid", ["", "0.5,"])
def test_empty_alpha_grid_entry_is_a_parse_error(capsys, h4_path, grid):
    """An empty grid exits 2 like an empty entry, instead of falling back to the default grid."""
    for command in ("curvature", "sweep"):
        code, out, err = _run(capsys, [command, h4_path, "--pair", "x2,x3", "--alpha-grid", grid])
        assert (code, out) == (2, "")
        assert err == "ParseError: --alpha-grid: cannot read '' as a rational\n"


# A bare JSON integer past Python's int-string limit (4300 digits) fails
# inside json.loads, before any field is read.
HUGE_INT = "1" * 5001


@pytest.mark.parametrize(
    "weight",
    [
        '"1e1000000"',
        '"' + "1" * 1001 + '"',
        "1e1000000",
        pytest.param(
            HUGE_INT,
            id="int-5001-digits",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"), reason="no int-string limit"
            ),
        ),
    ],
)
def test_huge_weight_literal_rejected(capsys, tmp_path, weight):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"flavor": "undirected", "n_vertices": 2, '
        f'"hyperedges": [{{"vertices": [0, 1], "weight": {weight}}}]}}'
    )
    code, _, err = _run(capsys, ["validate", str(path)])
    assert code == 2
    assert err.startswith("ParseError: ") and len(err.splitlines()) == 1
    assert ("digits" if weight == HUGE_INT else "weight") in err
    assert "set_int_max_str_digits" not in err


def test_undecodable_document_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"flavor": "\xff"}')
    code, _, err = _run(capsys, ["validate", str(path)])
    assert code == 2
    assert err.startswith("ParseError: cannot read ") and len(err.splitlines()) == 1


# Arrays nested past the interpreter's recursion limit, as the whole document
# and as a hyperedge's weight.
DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize(
    "text",
    [
        DEEP,
        '{"flavor": "undirected", "vertices": ["a", "b"], '
        f'"hyperedges": [{{"vertices": ["a", "b"], "weight": {DEEP}}}]}}',
    ],
    ids=["root", "weight"],
)
def test_deeply_nested_document_is_a_parse_error(capsys, tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = _run(capsys, ["validate", str(path)])
    assert (code, out) == (2, "")
    assert err == "ParseError: invalid JSON: arrays or objects nested too deeply\n"


# One document that each row below breaks in one place.
TWO = {"flavor": "undirected", "vertices": ["a", "b"], "hyperedges": [{"vertices": ["a", "b"]}]}
DOCUMENT_CHECKS = {
    "pair-index-out-of-range": (
        None,
        ["curvature", "--pair", "0,9"],
        "UnknownTarget: vertex index 9 out of range",
    ),
    "pair-unknown-name": (
        None,
        ["curvature", "--pair", "x1,nobody"],
        "UnknownTarget: unknown vertex 'nobody'",
    ),
    "edge-index-out-of-range": (
        None,
        ["curvature", "--edge", "99"],
        "UnknownTarget: hyperedge index 99 out of range",
    ),
    "root-not-an-object": ([TWO], ["validate"], "ParseError: document root must be a JSON object"),
    "vertices-empty": (
        {**TWO, "vertices": []},
        ["validate"],
        "ParseError: vertices: expected a nonempty list of names",
    ),
    "vertices-not-names": (
        {**TWO, "vertices": ["a", 2]},
        ["validate"],
        "ParseError: vertices: expected a nonempty list of names",
    ),
    "vertices-repeated": (
        {**TWO, "vertices": ["a", "b", "a"]},
        ["validate"],
        "ParseError: vertices: names must be unique",
    ),
    "n-vertices-0": (
        {"flavor": "undirected", "n_vertices": 0, "hyperedges": [{"vertices": [0, 1]}]},
        ["validate"],
        "ParseError: n_vertices: expected a positive integer",
    ),
    "n-vertices-true": (
        {"flavor": "undirected", "n_vertices": True, "hyperedges": [{"vertices": [0, 1]}]},
        ["validate"],
        "ParseError: n_vertices: expected a positive integer",
    ),
    "record-not-an-object": (
        {**TWO, "hyperedges": [["a", "b"]]},
        ["validate"],
        "ParseError: hyperedges[0]: expected an object",
    ),
    "record-without-members": (
        {**TWO, "hyperedges": [{"weight": "1"}]},
        ["validate"],
        "ParseError: hyperedges[0]: undirected records need 'vertices'",
    ),
    "members-empty": (
        {**TWO, "hyperedges": [{"vertices": []}]},
        ["validate"],
        "ParseError: hyperedges[0].vertices: expected a nonempty list of vertices",
    ),
    "member-unknown-name": (
        {**TWO, "hyperedges": [{"vertices": ["a", "c"]}]},
        ["validate"],
        "ParseError: hyperedges[0].vertices[1]: unknown vertex name 'c'",
    ),
}


@pytest.mark.parametrize("document, argv, line", DOCUMENT_CHECKS.values(), ids=DOCUMENT_CHECKS)
def test_each_document_check_exits_2_with_one_line(capsys, tmp_path, document, argv, line):
    """A document, or a target on data/h4.json, that fails one check of
    ``hypercurv.document``: exit 2, empty stdout, and that check's one line."""
    path = H4_FILE
    if document is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
    code, out, err = _run(capsys, [argv[0], str(path), *argv[1:]])
    assert (code, out, err) == (2, "", line + "\n")


def test_a_vertex_index_names_the_vertex(capsys):
    """``--pair 1,2`` reads the indices as vertices x2 and x3 and names them so."""
    code, out, _ = _run(capsys, ["curvature", str(H4_FILE), "--pair", "1,2"])
    assert code == 0
    assert out.splitlines()[1:] == ["pair x2,x3: lly=3/2 stabilization_alpha=3/4"]


def _best_parse_seconds(text: str) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        parse_document(text)
        best = min(best, time.perf_counter() - start)
    return best


def test_named_vertices_parse_in_linear_time():
    """Resolving vertex names costs about what integer ids cost.

    The same 8000-vertex undirected path is parsed with named vertices and
    with ``n_vertices`` and integer ids; the ratio of the two times cancels
    the speed of the host. A list scan per name made it about 12.
    """
    n = 8000
    names = [f"v{i}" for i in range(n)]
    named = {
        "flavor": "undirected",
        "vertices": names,
        "hyperedges": [{"vertices": [names[i], names[i + 1]]} for i in range(n - 1)],
    }
    numbered = {
        "flavor": "undirected",
        "n_vertices": n,
        "hyperedges": [{"vertices": [i, i + 1]} for i in range(n - 1)],
    }
    ratio = _best_parse_seconds(json.dumps(named)) / _best_parse_seconds(json.dumps(numbered))
    assert ratio <= 3, ratio


def _cap_address_space() -> None:
    """Limit a child to 1 GiB of address space, so a runaway allocation fails at once."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(sys.platform != "linux", reason="caps the child's memory with RLIMIT_AS")
@pytest.mark.parametrize(
    "flavor, edge, error",
    [
        ("undirected", {"vertices": [0, 1]}, "NotConnected"),
        ("directed", {"tail": [0], "head": [1]}, "NotStronglyConnected"),
        ("oriented", {"tail": [0], "head": [1]}, "NotStronglyConnected"),
    ],
)
def test_vertex_count_past_the_hyperedges_fails_fast(tmp_path, flavor, edge, error):
    """n_vertices above the hyperedges' vertex entries is refused before x1..xn is built.

    Runs in a child with capped memory: a program that built the names
    would fail there instead of filling the machine.
    """
    doc = {"flavor": flavor, "n_vertices": 10**12, "hyperedges": [edge]}
    if flavor == "oriented":
        doc["symmetrize"] = True
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    done = _python_m_hypercurv(
        "validate", path, capture_output=True, preexec_fn=_cap_address_space
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(f"{error}: ") and len(done.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "--all", "--format", "json"],
        ["bounds"],
        ["sweep", "--pair", "x2,x3"],
        ["validate"],
    ],
)
def test_stats_leave_stdout_unchanged(capsys, h4_path, argv):
    argv = [argv[0], h4_path, *argv[1:]]
    code, base, base_err = _run(capsys, argv)
    code_stats, out, err = _run(capsys, [*argv, "--stats"])
    assert code == code_stats == 0
    assert out == base and base_err == ""
    counters = json.loads(err)
    assert list(counters) == [
        "solves",
        "solve_hits",
        "pivots",
        "degenerate_pivots",
        "traced_pieces",
        "dual_pivots",
        "measures",
        "measure_hits",
        "limits",
        "limit_hits",
        "seconds",
        "startup_cpu_s",
        "render_s",
    ]
    assert counters["startup_cpu_s"] >= 0
    assert 0 <= counters["render_s"] <= counters["seconds"]
    assert counters["pivots"] >= counters["degenerate_pivots"] >= 0
    assert counters["dual_pivots"] >= counters["traced_pieces"] >= 0
    if argv[0] == "validate":
        assert counters["solves"] == counters["pivots"] == counters["dual_pivots"] == 0
    else:
        # Each transport entry is solved once and reads two measures per side.
        assert counters["solves"] > 0 and counters["measures"] <= 4 * counters["solves"]
    if argv[0] == "curvature":
        # The least-cost start leaves the mass two walk measures share on its
        # zero-cost cells and fills the rest along the cheapest ones; on h4
        # that start is already optimal for every transport.
        assert counters["pivots"] == 0


def test_sweep_reuses_the_stabilization_solve(capsys, h4_path):
    code, _, err = _run(capsys, ["sweep", h4_path, "--pair", "x2,x3", "--stats"])
    assert code == 0
    counters = json.loads(err)
    # One solve, at the dyadic 3/4: its piece [1/3, 1] is the final linear
    # region. Two dual pivots at 1/3 trace the piece [0, 1/3], so the curve
    # reaches the grid's alpha 0; the first ends on a basis that is optimal
    # at 1/3 only. One hit: the stabilization row reads the chain the curve
    # already traced over [0, 1], with no solve and no pivot.
    assert counters["solves"] == 1 and counters["solve_hits"] == 1
    assert counters["dual_pivots"] == 2 and counters["traced_pieces"] == 1


def test_wide_hyperedge_solves_without_primal_pivots(capsys, tmp_path):
    """One unit hyperedge of 120 vertices is the complete graph K_120, whose
    pairs have LLY curvature 120/119. The walk measures of x1 and x2 share
    the mass on the other 118 vertices; the least-cost start leaves it on
    their zero-cost cells and moves the rest along the cheapest ones, which
    is already optimal. A north-west corner start takes 233 degenerate
    pivots here."""
    names = [f"x{i + 1}" for i in range(120)]
    doc = {"flavor": "undirected", "vertices": names, "hyperedges": [{"vertices": names, "weight": "1"}]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["curvature", str(path), "--pair", "x1,x2", "--stats"])
    assert code == 0
    assert out == "mode: exact  variant: sum\npair x1,x2: lly=120/119 stabilization_alpha=3/4\n"
    counters = json.loads(err)
    assert counters["solves"] == 1 and counters["pivots"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["distances", "--format", "csv"],
        ["curvature", "--pair", "x1,x2", "--format", "csv"],
        ["curvature", "--all", "--format", "csv"],
        ["bounds", "--format", "csv"],
        ["bounds", "--format", "csv", "--float"],
        ["sweep", "--pair", "x2,x3"],
        ["sweep", "--edge", "h1"],
    ],
)
def test_csv_rows_match_header(capsys, h4_path, argv):
    """Names and witnesses with commas are quoted, so every row parses to the header's width."""
    code, out, _ = _run(capsys, [argv[0], h4_path, *argv[1:]])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# mode=")
    header, *rows = list(csv.reader(lines[1:]))
    assert rows
    assert all(len(row) == len(header) for row in rows)


def _python_m_hypercurv(command: str, path=H4_FILE, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python -m hypercurv`` on a document, by default the bundled h4, in a fresh process."""
    import hypercurv

    src = str(Path(hypercurv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "hypercurv", command, str(path)],
        text=True,
        env=env,
        timeout=60,
        **kwargs,
    )


def test_python_m_hypercurv_runs_the_cli():
    done = _python_m_hypercurv("validate", capture_output=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ok: flavor=undirected vertices=4")


def test_closed_stdout_keeps_the_exit_code_and_a_quiet_stderr():
    """A reader that stops early (``| head -1``) is no violated verdict and gets no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _python_m_hypercurv("bounds", stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert done.stderr == ""
    assert done.returncode == 0
