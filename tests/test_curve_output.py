"""``curvature`` and ``sweep`` print each curve sample straight from kappa's int lines.

The two int formatters are checked against the ``Fraction`` text they
replace, and the CLI's curves, in every format and number mode, against
the values of ``Evaluator.report``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercurv import Evaluator, all_pairs_distances, curvature_pairs, errors, serialize_document
from hypercurv.cli import _exact_text, _float_text, main
from hypercurv.curvature import DEFAULT_ALPHA_GRID
from hypercurv.hypergraph import DIRECTED
from hypercurv.random_instances import random_directed, random_oriented_unit, random_undirected

from conftest import named_document

nums = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.sampled_from([0, 1, -1, 2**1024, -(2**1024), 10**309]),
)
dens = st.one_of(
    st.integers(min_value=1),
    st.integers(min_value=1, max_value=10**400),
    st.sampled_from([1, 2, 3, 10**400]),
)


@settings(max_examples=500, deadline=None)
@given(nums, dens)
@example(0, 7)
@example(-6, 3)
@example(5, 1)
@example(10**400, 3)
@example(-(10**400), 1)
@example(1, 10**400)
def test_int_formatters_match_fraction_text(num, den):
    value = Fraction(num, den)
    assert _exact_text(num, den) == str(value)
    try:
        expected = repr(float(value))
    except OverflowError:
        with pytest.raises(OverflowError):
            _float_text(num, den)
    else:
        assert _float_text(num, den) == expected


GENERATORS = {
    "undirected": random_undirected,
    "directed": random_directed,
    "oriented": random_oriented_unit,
}
# The default grid; an unsorted grid with repeated alphas and alpha=1; and
# one that starts past 3/4.
GRIDS = [None, "1,1/2,0,1/2,1,1/3", "9/10,1"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _expected(hg, names, grid):
    """Per target name: (lly, stabilization_alpha, [(alpha, kappa, normalized)]), from
    ``Evaluator.report``; None if the limit search gives up."""
    oracle = all_pairs_distances(hg)
    ev = Evaluator(hg, oracle)
    targets = [(f"edge h{e + 1}", ("edge", e)) for e in range(hg.n_edges)]
    if hg.flavor != DIRECTED:
        pairs = curvature_pairs(hg)
        targets += [(f"pair {names[u]},{names[v]}", ("pair", u, v)) for u, v in pairs]
    expected = {}
    for name, target in sorted(targets):
        try:
            rep = ev.report(target, "sum", grid)
        except errors.NoStabilization:
            return None
        normalized = dict(rep.curve.normalized)
        rows = [(a, k, normalized[a] if a != 1 else None) for a, k in rep.curve.samples]
        expected[name] = (rep.lly, rep.stabilization_alpha, rows)
    return expected


def _check(expected, code, out, err, fmt, text) -> int:
    """Check that ``curvature --all --format fmt`` printed ``expected``; return its exit code."""
    if expected is None:
        assert code == 3 and out == ""
        assert err.startswith("NoStabilization: ") and err.count("\n") == 1
        return code
    assert (code, err) == (0, "")

    def curve(rows):
        return [(text(a), text(k), None if g is None else text(g)) for a, k, g in rows]

    if fmt == "json":
        found = {
            r["target"]: (
                r["lly"],
                r["stabilization_alpha"],
                [(s["alpha"], s["kappa"], s["normalized"]) for s in r["curve"]],
            )
            for r in json.loads(out)["results"]
        }
        assert list(found) == list(expected)
        for name, (lly, stab, rows) in expected.items():
            assert found[name] == (text(lly), text(stab), curve(rows)), name
    elif fmt == "csv":
        records = list(csv.reader(io.StringIO(out.partition("\n")[2])))[1:]
        want = []
        for name, (lly, stab, rows) in expected.items():
            want += [[name, a, k, "" if g is None else g] for a, k, g in curve(rows)]
            want.append([name, text(stab), "", text(lly)])
        assert records == want
    else:
        assert out.splitlines()[1:] == [
            f"{name}: lly={text(lly)} stabilization_alpha={text(stab)}"
            for name, (lly, stab, _rows) in expected.items()
        ]
    return code


@pytest.mark.parametrize("flavor", sorted(GENERATORS))
def test_cli_curves_are_the_report_values(tmp_path, flavor):
    codes = []
    for seed in range(6):
        hg = GENERATORS[flavor](random.Random(seed), n_max=5)
        doc = named_document(hg)
        path = tmp_path / f"{flavor}{seed}.json"
        path.write_text(json.dumps(serialize_document(doc)))
        for grid_text in GRIDS:
            grid_flag = [] if grid_text is None else ["--alpha-grid", grid_text]
            grid = (
                DEFAULT_ALPHA_GRID
                if grid_text is None
                else tuple(Fraction(a) for a in grid_text.split(","))
            )
            expected = _expected(hg, doc.vertex_names, grid)
            for mode, text in (([], str), (["--float"], lambda x: repr(float(x)))):
                for fmt in ("json", "csv", "table"):
                    argv = ["curvature", str(path), "--all", "--format", fmt, *grid_flag, *mode]
                    codes.append(_check(expected, *_run(argv), fmt, text))
    # Random directed instances often have a hyperedge without a limit (exit 3).
    assert len(codes) == 6 * len(GRIDS) * 6 and codes.count(0) >= len(GRIDS) * 6 * 3
