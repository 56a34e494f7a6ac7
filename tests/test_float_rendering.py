"""``--float`` prints the exactly computed results as decimals, nothing more.

Every subcommand is run once exact and once with ``--float`` on the same
documents: the exit codes and the output shapes must agree, and every
``p/q`` value of the exact output must appear in the float output as the
repr of its nearest float.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
from fractions import Fraction
from pathlib import Path

from hypercurv import serialize_document
from hypercurv.cli import main
from hypercurv.hypergraph import UNDIRECTED

from conftest import directed_corpus, named_document, oriented_corpus, undirected_corpus

H4 = Path(__file__).resolve().parents[1] / "data" / "h4.json"
RATIONAL = re.compile(r"-?\d+(/\d+)?")


def _documents(tmp_path):
    paths = [(str(H4), True)]
    corpus = (
        undirected_corpus(7401, 3, n_max=5, extra_max=1)
        + directed_corpus(7402, 3, n_max=4, m_max=6)
        + oriented_corpus(7403, 2, n_max=4, extra_max=2)
    )
    for k, hg in enumerate(corpus):
        path = tmp_path / f"doc{k}.json"
        path.write_text(json.dumps(serialize_document(named_document(hg))))
        paths.append((str(path), hg.flavor == UNDIRECTED))
    return paths


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _assert_rendering(exact, approx, where):
    """``approx`` has the shape of ``exact`` with every rational leaf as a decimal."""
    if isinstance(exact, dict):
        assert isinstance(approx, dict) and list(exact) == list(approx), where
        if "mode" in exact:
            assert (exact["mode"], approx["mode"]) == ("exact", "float"), where
        return sum(
            _assert_rendering(exact[key], approx[key], f"{where}.{key}")
            for key in exact
            if key != "mode"
        )
    if isinstance(exact, list):
        assert isinstance(approx, list) and len(exact) == len(approx), where
        return sum(
            _assert_rendering(a, b, f"{where}[{k}]") for k, (a, b) in enumerate(zip(exact, approx))
        )
    if isinstance(exact, str) and RATIONAL.fullmatch(exact):
        assert approx == repr(float(Fraction(exact))), (where, exact, approx)
        return 1
    assert approx == exact, where
    return 0


def _commands(path, undirected):
    target = ["--pair", "x1,x2"] if undirected else ["--edge", "h1"]
    return [
        ["curvature", path, "--all", "--format", "json"],
        ["bounds", path, "--format", "json"],
        ["distances", path, "--format", "json"],
        ["sweep", path, *target],
    ]


def test_float_output_is_a_rendering_of_exact_output(tmp_path):
    checked = 0
    codes = set()
    for path, undirected in _documents(tmp_path):
        for argv in _commands(path, undirected):
            code, exact = _run(argv)
            float_code, approx = _run([*argv, "--float"])
            assert code == float_code, argv
            codes.add(code)
            if not exact:
                assert not approx, argv
                continue
            if argv[0] == "sweep":
                # CSV: a "# mode=..." comment line, then header and rows.
                head, _, body = exact.partition("\n")
                float_head, _, float_body = approx.partition("\n")
                assert float_head == head.replace("mode=exact", "mode=float"), argv
                exact_tree = list(csv.reader(io.StringIO(body)))
                approx_tree = list(csv.reader(io.StringIO(float_body)))
            else:
                exact_tree, approx_tree = json.loads(exact), json.loads(approx)
            checked += _assert_rendering(exact_tree, approx_tree, " ".join(argv))
    assert checked > 1000
    assert 0 in codes
