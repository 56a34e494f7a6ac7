"""The memoised Evaluator against the uncached limit search it replaced."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hypercurv import Evaluator, ParsedDocument, all_pairs_distances, build, errors
from hypercurv.cli import RunConfig, _bounds_ledger
from hypercurv.hypergraph import UNDIRECTED

from conftest import directed_corpus, random_oriented_unit, undirected_corpus
from oracles import reference_lly_limit

# Overlaps the dyadic search (3/4) and includes alpha=1, so the curve and the
# limit share memo entries.
GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10), Fraction(1))


def _oriented_corpus(seed: int, count: int):
    rng = random.Random(seed)
    return [random_oriented_unit(rng, n_max=5, extra_max=2) for _ in range(count)]


def _targets(hg, oracle):
    """Every (target, variant) the CLI evaluates for the instance."""
    if hg.flavor == UNDIRECTED:
        for e in range(hg.n_edges):
            for variant in ("min", "sum", "max"):
                yield ("edge", e), variant
        for u in range(hg.n_vertices):
            for v in range(u + 1, hg.n_vertices):
                yield ("pair", u, v), "sum"
        return
    for e in range(hg.n_edges):
        yield ("edge", e), "sum"
    if oracle.symmetric:
        for u in range(hg.n_vertices):
            for v in range(hg.n_vertices):
                if u != v:
                    yield ("pair", u, v), "sum"


def _divergent():
    """Directed instance whose first hyperedge has negative curvature at alpha=1."""
    return build(
        "directed",
        3,
        [([0, 1], [2], 5), ([2], [0], 1), ([2], [1], 5), ([0], [2], 1)],
    )


CORPORA = {
    "undirected": lambda: undirected_corpus(7101, 5, n_max=5, extra_max=1),
    "directed": lambda: directed_corpus(7102, 5, n_max=4, m_max=6) + [_divergent()],
    "oriented": lambda: _oriented_corpus(7103, 4),
}


def _compare(hg, exact: bool) -> int:
    oracle = all_pairs_distances(hg)
    ev = Evaluator(hg, oracle, exact=exact)
    diverged = 0
    for target, variant in _targets(hg, oracle):
        try:
            samples, normalized, lly, stab = reference_lly_limit(
                hg, oracle, target, variant, GRID, exact=exact
            )
        except errors.NoStabilization:
            with pytest.raises(errors.NoStabilization):
                ev.report(target, variant, GRID)
            diverged += 1
            continue
        rep = ev.report(target, variant, GRID)
        assert rep.curve.samples == samples, target
        assert rep.curve.normalized == normalized, target
        assert rep.lly == lly, target
        assert rep.stabilization_alpha == stab, target
    return diverged


@pytest.mark.parametrize("flavor", sorted(CORPORA))
def test_report_matches_uncached_reference(flavor):
    diverged = sum(_compare(hg, exact=True) for hg in CORPORA[flavor]())
    assert (diverged > 0) == (flavor == "directed")


def test_float_report_matches_uncached_reference():
    for hg in CORPORA["undirected"]()[:2] + _oriented_corpus(7104, 2):
        _compare(hg, exact=False)


def test_memo_solves_each_transport_once():
    hg = undirected_corpus(7105, 1, n_max=5)[0]
    ev = Evaluator(hg, all_pairs_distances(hg))
    targets = list(_targets(hg, ev.oracle))
    for target, variant in targets:
        ev.report(target, variant, GRID)
    first = (ev.stats.solves, ev.stats.measures, ev.stats.limits)
    assert ev.stats.limits == len(targets) and ev.stats.limit_hits == 0
    assert ev.stats.measures <= 2 * ev.stats.solves
    for target, variant in targets:
        ev.report(target, variant, GRID)
    assert (ev.stats.solves, ev.stats.measures, ev.stats.limits) == first
    assert ev.stats.limit_hits == len(targets)


def test_divergent_edge_raises_again_from_memo():
    hg = _divergent()
    ev = Evaluator(hg, all_pairs_distances(hg))
    with pytest.raises(errors.NoStabilization):
        ev.limit(("edge", 0))
    solves = ev.stats.solves
    with pytest.raises(errors.NoStabilization):
        ev.limit(("edge", 0))
    with pytest.raises(errors.NoStabilization):
        ev.report(("edge", 0))
    assert ev.stats.solves == solves
    assert (ev.stats.limits, ev.stats.limit_hits) == (1, 2)


def _document(hg):
    names = [f"x{i + 1}" for i in range(hg.n_vertices)]
    return ParsedDocument(hg, names, [f"h{k + 1}" for k in range(hg.n_edges)])


@pytest.mark.parametrize("flavor", sorted(CORPORA))
def test_ledger_with_shared_evaluator_equals_fresh_per_check(flavor):
    cfg = RunConfig()
    for hg in CORPORA[flavor]()[:3]:
        doc = _document(hg)
        ev = Evaluator(hg, all_pairs_distances(hg))
        assert _bounds_ledger(doc, cfg, ev) == _bounds_ledger(doc, cfg)
