"""The record semantics the library relies on: value equality, defaults, reprs."""

from __future__ import annotations

from fractions import Fraction

from hypercurv import (
    Evaluator,
    EvalStats,
    Limit,
    all_pairs_distances,
    build,
    edge_length,
    lly_limit,
)
from hypercurv.bounds import BoundVerdict
from hypercurv.hypergraph import DirectedEdge, UndirectedEdge
from hypercurv.metric import EdgeLength
from hypercurv.walk import ProbabilityMeasure, measure_undirected


def test_edges_equal_and_hash_by_value():
    a = UndirectedEdge(frozenset({0, 1, 2}), Fraction(1))
    b = UndirectedEdge(frozenset({2, 1, 0}), Fraction(2, 2))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != UndirectedEdge(frozenset({0, 1, 2}), Fraction(2))
    assert len(a) == 3

    d = DirectedEdge(frozenset({0}), frozenset({1, 2}), Fraction(1, 2))
    e = DirectedEdge(frozenset({0}), frozenset({2, 1}), Fraction(1, 2))
    assert d == e and hash(d) == hash(e) and len({d, e}) == 1
    assert d != d.reversed() and d.reversed().reversed() == d
    assert d != DirectedEdge(frozenset({0}), frozenset({1, 2}), Fraction(1))


def test_value_records_compare_by_fields():
    v = BoundVerdict(name="n", lhs=Fraction(1), rhs=Fraction(2), holds=True, target="t")
    assert v == BoundVerdict("n", Fraction(1), Fraction(2), True, "t", None)
    assert v != BoundVerdict("n", Fraction(1), Fraction(2), True, "t", "w")
    assert v.applicable and not BoundVerdict("n", None, None, None).applicable

    hg = build("undirected", 3, [([0, 1, 2], 1)])
    oracle = all_pairs_distances(hg)
    assert edge_length(hg, oracle, 0, "sum") == EdgeLength(variant="sum", value=Fraction(3))
    assert edge_length(hg, oracle, 0, "min") != edge_length(hg, oracle, 0, "max")


def test_measure_reads_zero_off_its_support():
    hg = build("undirected", 4, [([0, 1, 2], 1), ([0, 3], 1)])
    mu = measure_undirected(hg, 3, Fraction(1, 2))
    assert mu.support() == (0, 3)
    assert mu[1] == Fraction(0) and isinstance(mu[1], Fraction)
    assert ProbabilityMeasure({}, Fraction(0))[5] == 0


def test_report_alpha_lo_is_zero_without_a_kink():
    """``lly_limit`` returns the Evaluator's ``Limit`` record, and ``alpha_lo``,
    the last breakpoint, is 0 where kappa has none."""
    hg = build("undirected", 4, [([0, 1, 2], 1), ([0, 3], 1)])
    oracle = all_pairs_distances(hg)
    ev = Evaluator(hg, oracle)
    assert ev.breakpoints(("pair", 1, 3)) == []
    found = lly_limit(hg, oracle, ("pair", 1, 3), "sum")
    assert isinstance(found, Limit) and found == ev.limit(("pair", 1, 3), "sum")
    assert found.stabilization_alpha == Fraction(3, 4)
    assert max(ev.breakpoints(("pair", 1, 3)), default=0) == 0
    assert max(ev.breakpoints(("pair", 1, 2)), default=0) == Fraction(1, 3)


def test_eval_stats_start_at_zero_and_repr_by_field():
    stats = EvalStats()
    fields = stats.as_dict()
    assert list(fields) == [
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
    ]
    assert set(fields.values()) == {0}
    stats.solves += 2
    assert repr(stats).startswith("EvalStats(solves=2, solve_hits=0, pivots=0, ")
    assert repr(stats).endswith(", limit_hits=0)")
