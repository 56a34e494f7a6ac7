"""End-to-end CLI behavior: exit codes, determinism, round-trips."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hypercurv import parse_document, serialize_document
from hypercurv.cli import main

H4_DOC = {
    "flavor": "undirected",
    "vertices": ["x1", "x2", "x3", "x4"],
    "hyperedges": [
        {"vertices": ["x1", "x2", "x3"], "weight": "1"},
        {"vertices": ["x1", "x4"], "weight": "1"},
    ],
}


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


def test_env_threads_fallback(capsys, h4_path, monkeypatch):
    monkeypatch.setenv("HYPERCURV_THREADS", "3")
    code, out, _ = _run(capsys, ["curvature", h4_path, "--all", "--format", "json"])
    assert code == 0
    monkeypatch.delenv("HYPERCURV_THREADS")
    _, base, _ = _run(capsys, ["curvature", h4_path, "--all", "--format", "json"])
    assert out == base


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


@pytest.mark.parametrize("tol", ["nan", "-nan", "0", "-1"])
def test_non_positive_tol_rejected(capsys, h4_path, tol):
    """``--tol`` must be positive, and nan is not: it exits 2 like ``--tol 0``."""
    code, out, err = _run(capsys, ["curvature", h4_path, "--pair", "x2,x3", f"--tol={tol}"])
    assert code == 2 and out == ""
    assert err == "ParseError: tolerance must be positive\n"


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


def test_bad_env_threads_rejected(capsys, h4_path, monkeypatch):
    monkeypatch.setenv("HYPERCURV_THREADS", "lots")
    code, _, err = _run(capsys, ["curvature", h4_path, "--pair", "x2,x3"])
    assert code == 2
    assert "HYPERCURV_THREADS" in err


@pytest.mark.parametrize(
    "flags",
    [["--alpha", "abc"], ["--alpha", "1/0"], ["--alpha-grid", "0,x"], ["--alpha", "1e100000"]],
)
def test_unreadable_alpha_is_a_parse_error(capsys, h4_path, flags):
    code, out, err = _run(capsys, ["curvature", h4_path, "--pair", "x2,x3", *flags])
    assert code == 2
    assert out == ""
    assert err.startswith("ParseError: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("weight", ['"1e1000000"', '"' + "1" * 1001 + '"', "1e1000000"])
def test_huge_weight_literal_rejected(capsys, tmp_path, weight):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"flavor": "undirected", "n_vertices": 2, '
        f'"hyperedges": [{{"vertices": [0, 1], "weight": {weight}}}]}}'
    )
    code, _, err = _run(capsys, ["validate", str(path)])
    assert code == 2
    assert "ParseError" in err and "weight" in err


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
    ]
    assert counters["startup_cpu_s"] >= 0
    assert counters["pivots"] >= counters["degenerate_pivots"] >= 0
    assert counters["dual_pivots"] >= counters["traced_pieces"] >= 0
    if argv[0] == "validate":
        assert counters["solves"] == counters["pivots"] == counters["dual_pivots"] == 0
    else:
        # Each transport entry is solved once and reads two measures per side.
        assert counters["solves"] > 0 and counters["measures"] <= 4 * counters["solves"]
    if argv[0] == "curvature":
        assert counters["pivots"] > 0


def test_sweep_reuses_the_stabilization_solve(capsys, h4_path):
    code, _, err = _run(capsys, ["sweep", h4_path, "--pair", "x2,x3", "--stats"])
    assert code == 0
    counters = json.loads(err)
    # One solve, at the dyadic 3/4: its piece [1/3, 1] is the final linear
    # region. Two dual pivots at 1/3 trace the piece [0, 1/3] for the grid's
    # alpha 0; the first ends on a basis that is optimal at 1/3 only. Eleven
    # hits: the other ten grid points and the stabilization row.
    assert counters["solves"] == 1 and counters["solve_hits"] == 11
    assert counters["dual_pivots"] == 2 and counters["traced_pieces"] == 1


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


def test_python_m_hypercurv_runs_the_cli():
    import hypercurv

    src = str(Path(hypercurv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    h4 = Path(__file__).resolve().parents[1] / "data" / "h4.json"
    done = subprocess.run(
        [sys.executable, "-m", "hypercurv", "validate", str(h4)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ok: flavor=undirected vertices=4")
