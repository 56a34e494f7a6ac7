"""Verdict checks for every curvature inequality, plus degenerate cases."""

from __future__ import annotations

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from hypercurv import (
    Evaluator,
    all_pairs_distances,
    build,
    check_bonnet_myers,
    check_directed_edge_bound,
    check_edge_upper_bound,
    check_pair_bound_oriented,
    check_pair_upper_bound,
    check_vertex_count,
    curvature_pairs,
    errors,
    lly_limit,
    load_document,
    verdict_ledger,
    vertex_count_bound,
)
from hypercurv import bounds
from hypercurv.bounds import VERTEX_COUNT_MAX_TERMS

from conftest import (
    random_directed,
    random_oriented_dense,
    random_oriented_unit,
    random_undirected,
)

ALPHAS = [Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


def test_h4_pair_upper_bounds(h4, h4_oracle):
    for a in ALPHAS:
        for v in check_pair_upper_bound(Evaluator(h4, h4_oracle), 1, 2, a):
            assert v.holds
    at_one = check_pair_upper_bound(Evaluator(h4, h4_oracle), 1, 2, 1)
    assert all(v.lhs == 0 and v.rhs == 0 for v in at_one)
    # the limit 3/2 stays below the normalized global bound 2
    assert lly_limit(h4, h4_oracle, ("pair", 1, 2)).lly <= 2


def test_h4_edge_upper_bound_sum(h4, h4_oracle):
    v = check_edge_upper_bound(Evaluator(h4, h4_oracle), 0, Fraction(1, 2), "sum")
    assert v.holds
    # normalized form of the same bound: 5/6 <= (k-1) * sum of member maxima / L_sum = 2
    assert lly_limit(h4, h4_oracle, ("edge", 0), variant="sum").lly <= 2


def test_pair_and_edge_bounds_random_sweep():
    rng = random.Random(5001)
    for _ in range(10):
        hg = random_undirected(rng, n_max=6, extra_max=1)
        oracle = all_pairs_distances(hg)
        for a in ALPHAS:
            for u in range(hg.n_vertices):
                for v in range(u + 1, hg.n_vertices):
                    verdicts = check_pair_upper_bound(Evaluator(hg, oracle), u, v, a)
                    assert all(x.holds for x in verdicts)
            for e in range(hg.n_edges):
                for variant in ("min", "sum", "max"):
                    assert check_edge_upper_bound(Evaluator(hg, oracle), e, a, variant).holds


def test_directed_edge_bound_random_sweep():
    rng = random.Random(5002)
    for _ in range(12):
        hg = random_directed(rng, n_max=6, m_max=7)
        oracle = all_pairs_distances(hg)
        for a in ALPHAS:
            for e in range(hg.n_edges):
                verdict, data = check_directed_edge_bound(Evaluator(hg, oracle), e, a)
                assert verdict.holds, (e, a)
                assert data.head_size == len(hg.edges[e].head)
                assert data.diameter == oracle.diameter()


def test_directed_edge_bound_alpha_one_trivial():
    hg = build("directed", 3, [([0], [1], 1), ([1], [2], 1), ([2], [0], 1)])
    oracle = all_pairs_distances(hg)
    verdict, _ = check_directed_edge_bound(Evaluator(hg, oracle), 0, 1)
    assert verdict.holds and verdict.rhs == 0 and verdict.lhs <= 0


def test_directed_bound_data_partition_constants():
    hg = build("oriented", 3, [([0], [1], 1), ([1], [2], 1)], symmetrize=True)
    oracle = all_pairs_distances(hg)
    _, data = check_directed_edge_bound(Evaluator(hg, oracle), 0, Fraction(1, 2))
    (head,) = data.per_head
    assert head.vertex == 1
    assert head.partition.closer == frozenset({0})
    assert head.partition.farther == frozenset({2})
    assert head.c_exact == 0  # the two unit gaps cancel exactly here
    assert head.c_estimate == 0


def test_directed_estimate_may_undershoot_exact_constant():
    """The closed-form per-head estimate is not a true upper bound on the
    exact constant when the farther-side term dominates; the main verdict
    uses the exact constant and is unaffected."""
    hg = build(
        "directed",
        5,
        [
            ([0], [1], 1),
            ([1], [2, 3], 1),
            ([1], [4], 1),
            ([2], [0], 1),
            ([3], [0], 1),
            ([4], [0], 1),
        ],
    )
    oracle = all_pairs_distances(hg)
    verdict, data = check_directed_edge_bound(Evaluator(hg, oracle), 0, Fraction(1, 2))
    (head,) = data.per_head
    assert head.partition.farther == frozenset({2, 3, 4})
    assert head.c_exact == Fraction(-1)
    assert head.c_estimate == Fraction(-3, 2)
    assert head.c_exact > head.c_estimate
    assert verdict.holds


def test_bonnet_myers_h4(h4, h4_oracle):
    verdicts = check_bonnet_myers(Evaluator(h4, h4_oracle))
    diam = [v for v in verdicts if v.name == "bm-diameter"]
    assert len(diam) == 1 and diam[0].holds
    assert diam[0].lhs == 2 and diam[0].rhs == 4
    assert all(v.holds for v in verdicts if v.name == "bm-pair")


def _hypercube(d):
    return [(x, x ^ 1 << i) for x in range(2**d) for i in range(d) if x < x ^ 1 << i]


def _cocktail_party(k):
    """K_2k minus the perfect matching {2i, 2i+1}."""
    return [(u, v) for u in range(2 * k) for v in range(u + 2 - u % 2, 2 * k)]


def _johnson_6_3():
    triples = list(combinations(range(6), 3))
    index = {t: i for i, t in enumerate(triples)}
    return [(index[a], index[b]) for a, b in combinations(triples, 2) if len(set(a) & set(b)) == 2]


@pytest.mark.parametrize(
    "edges",
    [_hypercube(d) for d in range(2, 6)]
    + [_cocktail_party(k) for k in range(2, 6)]
    + [_johnson_6_3()],
    ids=[f"Q{d}" for d in range(2, 6)] + [f"CP{k}" for k in range(2, 6)] + ["J(6,3)"],
)
def test_bonnet_myers_sharp_graphs(edges):
    """Hypercubes, cocktail-party graphs and J(6,3) are Bonnet-Myers sharp
    (Cushing, Kamtue, Koolen, Liu, Münch and Peyerimhoff, Adv. Math. 2020):
    the diameter bound holds with equality, and so does the pair bound on
    exactly the pairs at the diameter."""
    n = 1 + max(v for _u, v in edges)
    hg = build("undirected", n, [([u, v], 1) for u, v in edges])
    oracle = all_pairs_distances(hg)
    verdicts = check_bonnet_myers(Evaluator(hg, oracle))
    (diam,) = [v for v in verdicts if v.name == "bm-diameter"]
    assert diam.lhs == diam.rhs == oracle.diameter()
    pair_rows = [v for v in verdicts if v.name == "bm-pair"]
    pairs = curvature_pairs(hg)
    assert len(pair_rows) == len(pairs)
    equal = {pair for pair, v in zip(pairs, pair_rows) if v.lhs == v.rhs}
    assert equal == {(u, v) for u, v in pairs if oracle.d(u, v) == oracle.diameter()}


# Every hyperedge on 4 labelled vertices: 6 pairs, 4 triples and the whole set.
FOUR_VERTEX_EDGES = [h for k in (2, 3, 4) for h in combinations(range(4), k)]


def _four_vertex_hypergraphs():
    """Every unit-weight undirected hypergraph on 4 labelled vertices with no
    repeated hyperedge that ``build`` accepts, which are the connected ones."""
    for k in range(1, len(FOUR_VERTEX_EDGES) + 1):
        for chosen in combinations(FOUR_VERTEX_EDGES, k):
            try:
                yield build("undirected", 4, [(list(h), 1) for h in chosen])
            except errors.NotConnected:
                pass


def test_sharp_cases_over_every_four_vertex_hypergraph():
    """Which checks of the undirected ledger hold with equality, over all
    1990 connected unit-weight hypergraphs on 4 labelled vertices, at alpha
    0 and 1/2. Every other test checks lhs <= rhs, which a constant looser
    than the paper's would pass too; an equality pins the constant.

    Both pair upper bounds, Bonnet-Myers on pairs and on the diameter reach
    equality (480, 480, 648 and 114 rows over both alphas), and only on
    pairs at distance >= 2, such as two leaves of a star. The hyperedge
    upper bound never does: its least slack is 5/4 at alpha 0 and
    (1 - alpha)/4 = 1/8 at alpha 1/2."""
    equal = Counter()
    least_edge_slack = {}
    documents = 0
    for hg in _four_vertex_hypergraphs():
        documents += 1
        ev = Evaluator(hg, all_pairs_distances(hg))
        for a in (Fraction(0), Fraction(1, 2)):
            for verdict in verdict_ledger(ev, a):
                if verdict.name == "edge-upper":
                    slack = verdict.rhs - verdict.lhs
                    least_edge_slack[a] = min(least_edge_slack.get(a, slack), slack)
                if verdict.holds is None or verdict.lhs != verdict.rhs:
                    continue
                equal[verdict.name, a] += 1
                if verdict.name != "bm-diameter":
                    u, v = re.match(r"pair \((\d),(\d)\)", verdict.target).groups()
                    assert ev.oracle.d(int(u), int(v)) >= 2, (hg.edges, verdict)
    assert documents == 1990
    half = Fraction(1, 2)
    assert equal == {
        ("pair-upper-global", 0): 156,
        ("pair-upper-local", 0): 156,
        ("bm-pair", 0): 324,
        ("bm-diameter", 0): 57,
        ("pair-upper-global", half): 324,
        ("pair-upper-local", half): 324,
        ("bm-pair", half): 324,
        ("bm-diameter", half): 57,
    }
    assert least_edge_slack == {0: Fraction(5, 4), half: (1 - half) / 4}


def test_bonnet_myers_skips_nonpositive_pairs():
    hg = build("undirected", 5, [([i, i + 1], 1) for i in range(4)])
    oracle = all_pairs_distances(hg)
    verdicts = check_bonnet_myers(Evaluator(hg, oracle))
    skipped = [v for v in verdicts if v.holds is None]
    assert skipped, "a path graph has nonpositive endpoint curvature"
    assert all(v.holds for v in verdicts if v.holds is not None)


def test_bonnet_myers_random_positive_oriented():
    rng = random.Random(5003)
    for _ in range(6):
        hg = random_oriented_dense(rng)
        oracle = all_pairs_distances(hg)
        verdicts = check_bonnet_myers(Evaluator(hg, oracle))
        assert all(v.holds for v in verdicts if v.holds is not None)


def _evaluator(flavor, n, edges, symmetrize=False):
    hg = build(flavor, n, edges, symmetrize=symmetrize)
    return Evaluator(hg, all_pairs_distances(hg))


def _undirected():
    return _evaluator("undirected", 3, [([0, 1, 2], 1)])


def _directed_cycle():
    """A directed triangle: its quasi-distance is asymmetric."""
    return _evaluator("directed", 3, [([0], [1], 1), ([1], [2], 1), ([2], [0], 1)])


def _oriented():
    return _evaluator("oriented", 2, [([0], [1], 1)], symmetrize=True)


def _weighted_oriented():
    doc = load_document(Path(__file__).resolve().parents[1] / "data" / "weighted_oriented.json")
    return Evaluator(doc.hypergraph, all_pairs_distances(doc.hypergraph))


GUARDS = {
    "pair-upper-not-undirected": (
        lambda: check_pair_upper_bound(_oriented(), 0, 1, 0),
        errors.UnsupportedFlavor,
        "pair upper bounds here are undirected",
    ),
    "edge-upper-asymmetric": (
        lambda: check_edge_upper_bound(_directed_cycle(), 0, 0, "min"),
        errors.UnsupportedFlavor,
        "asymmetric directed hyperedges",
    ),
    "edge-upper-oriented-sum": (
        lambda: check_edge_upper_bound(_oriented(), 0, 0, "sum"),
        errors.UnsupportedVariant,
        "min length only",
    ),
    "partition-undirected": (
        lambda: check_directed_edge_bound(_undirected(), 0, 0),
        errors.UnsupportedFlavor,
        "applies to directed flavors",
    ),
    "pair-oriented-undirected": (
        lambda: check_pair_bound_oriented(_undirected(), 0, 1, 0),
        errors.UnsupportedFlavor,
        "need the oriented flavor",
    ),
    "vertex-count-undirected": (
        lambda: check_vertex_count(_undirected()),
        errors.UnsupportedFlavor,
        "needs the oriented flavor",
    ),
    "vertex-count-weighted": (
        lambda: check_vertex_count(_weighted_oriented()),
        errors.NonUnitWeights,
        "needs unit weights",
    ),
    "kappa-unknown-kind": (
        lambda: _undirected().kappa(("face", 0), 0),
        ValueError,
        "unknown target kind 'face'",
    ),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS)
def test_guards_a_library_caller_can_reach(call, error, message):
    """Each check refuses an instance or a target it does not apply to."""
    with pytest.raises(error, match=message):
        call()


PATH_BOTH_WAYS = [([0], [1], 1), ([1], [0], 1), ([1], [2], 1), ([2], [1], 1)]
ORIENTED_PAIR = ["oriented-pair-upper-unit", "oriented-pair-upper-unit-lly", "oriented-pair-upper-weight"]


@pytest.mark.parametrize(
    "hg, names",
    [
        (
            build("undirected", 4, [([0, 1, 2], 1), ([0, 3], 1)]),
            ["pair-upper-global", "pair-upper-local"] * 6
            + ["edge-upper"] * 2
            + ["bm-pair"] * 6
            + ["bm-diameter"],
        ),
        (
            build("directed", 3, [([0], [1], 1), ([1], [2], 1), ([2], [0], 1)]),
            ["directed-edge-upper"] * 3 + ["bonnet-myers"],
        ),
        (
            build("directed", 3, PATH_BOTH_WAYS),  # symmetric quasi-distance
            ["directed-edge-upper", "edge-upper"] * 4 + ["bm-edge"] * 4 + ["bm-diameter"],
        ),
        (
            build("oriented", 3, PATH_BOTH_WAYS),
            ["directed-edge-upper", "edge-upper"] * 4
            + ORIENTED_PAIR * 6
            + ["vertex-count"]
            + ["bm-edge"] * 4
            + ["bm-diameter"],
        ),
    ],
    ids=["undirected", "directed", "symmetric-directed", "oriented"],
)
def test_verdict_ledger_runs_the_checks_of_the_flavor(hg, names):
    oracle = all_pairs_distances(hg)
    assert [v.name for v in verdict_ledger(Evaluator(hg, oracle), Fraction(1, 2))] == names


def test_oriented_pair_bounds_single_pair():
    hg = build("oriented", 2, [([0], [1], 1)], symmetrize=True)
    oracle = all_pairs_distances(hg)
    verdicts = check_pair_bound_oriented(Evaluator(hg, oracle), 0, 1, Fraction(1, 2))
    assert {v.name for v in verdicts} == {
        "oriented-pair-upper-unit",
        "oriented-pair-upper-unit-lly",
        "oriented-pair-upper-weight",
    }
    assert all(v.holds for v in verdicts)
    assert lly_limit(hg, oracle, ("pair", 0, 1)).lly == 2


def test_oriented_pair_bounds_random_sweep():
    rng = random.Random(5004)
    applicable = 0
    for _ in range(8):
        hg = random_oriented_unit(rng, n_max=5, simple=True)
        oracle = all_pairs_distances(hg)
        for u in range(hg.n_vertices):
            for v in range(hg.n_vertices):
                if u != v:
                    ev = Evaluator(hg, oracle)
                    for verdict in check_pair_bound_oriented(ev, u, v, Fraction(1, 2)):
                        assert verdict.holds is not False, (u, v, verdict)
                        applicable += verdict.holds is True
    assert applicable > 50


def test_oriented_pair_bound_gated_on_multiple_coverage():
    """With a neighbor reachable through several hyperedges the closed-form
    partition bound has no backing (and genuinely fails here), so the
    verdicts must come back not-applicable rather than violated."""
    hg = build(
        "oriented",
        4,
        [([0], [1], 1), ([1], [2], 1), ([2], [3], 1), ([3], [0], 1), ([3], [0, 2], 1)],
        symmetrize=True,
    )
    oracle = all_pairs_distances(hg)
    verdicts = check_pair_bound_oriented(Evaluator(hg, oracle), 1, 3, Fraction(1, 2))
    by_name = {v.name: v for v in verdicts}
    assert by_name["oriented-pair-upper-unit"].holds is None
    assert "multiply covered" in by_name["oriented-pair-upper-unit"].witness
    assert by_name["oriented-pair-upper-weight"].holds
    # the raw closed form indeed fails: kappa exceeds it
    from hypercurv import kappa_alpha_pair
    from hypercurv.metric import partition_neighborhood

    part = partition_neighborhood(hg, oracle, 1, 3)
    gap = Fraction(len(part.closer)) - Fraction(len(part.farther), hg.max_head_size())
    raw_bound = (1 + gap / hg.deg_out(3)) / oracle.d(1, 3)
    kappa = kappa_alpha_pair(hg, oracle, 1, 3, Fraction(1, 2))
    assert kappa > Fraction(1, 2) * raw_bound


def test_oriented_pair_bound_nonunit_weights():
    hg = build("oriented", 2, [([0], [1], 2)], symmetrize=True)
    oracle = all_pairs_distances(hg)
    verdicts = check_pair_bound_oriented(Evaluator(hg, oracle), 0, 1, Fraction(1, 2))
    unit = [v for v in verdicts if v.name == "oriented-pair-upper-unit"]
    assert unit and unit[0].holds is None and unit[0].witness == "NonUnitWeights"
    weighted = [v for v in verdicts if v.name == "oriented-pair-upper-weight"]
    assert weighted and weighted[0].holds


def test_vertex_count_bound_formula():
    assert vertex_count_bound(3, 2, Fraction(2)) == 4  # floor(2/2)=1: 1 + Delta
    # floor(2/kappa)=4 layers, Delta=2, B=2: terms 2, 20/3, 160/9, 320/9
    f = Fraction
    expected = (
        1
        + 2
        + 4 * f(2, 3) * f(5, 2)
        + 8 * f(2, 3) * f(5, 2) * f(2, 3) * 2
        + 16 * f(2, 3) * f(5, 2) * f(2, 3) * 2 * f(2, 3) * f(3, 2)
    )
    assert vertex_count_bound(2, 2, f(1, 2)) == expected == 63


def test_vertex_count_single_pair():
    hg = build("oriented", 2, [([0], [1], 1)], symmetrize=True)
    oracle = all_pairs_distances(hg)
    verdict = check_vertex_count(Evaluator(hg, oracle))
    assert verdict.holds and verdict.lhs == 2


def test_vertex_count_not_applicable_when_floor_nonpositive():
    hg = build("oriented", 5, [([i], [i + 1], 1) for i in range(4)], symmetrize=True)
    oracle = all_pairs_distances(hg)
    verdict = check_vertex_count(Evaluator(hg, oracle))
    assert verdict.holds is None
    assert "not positive" in verdict.witness


def test_layer_growth_under_curvature_floor():
    rng = random.Random(5006)
    checked = 0
    while checked < 5:
        hg = random_oriented_dense(rng)
        oracle = all_pairs_distances(hg)
        pairs = [
            (u, v)
            for u in range(hg.n_vertices)
            for v in range(hg.n_vertices)
            if u != v
        ]
        kappa0 = min(lly_limit(hg, oracle, ("pair", u, v)).lly for (u, v) in pairs)
        if kappa0 <= 0:
            continue
        b_h = hg.max_head_size()
        delta = hg.max_degree()
        for u in range(hg.n_vertices):
            # vertices at each exact distance from u, u itself excluded
            layers = Counter(oracle.d(u, z) for z in range(hg.n_vertices) if z != u)
            i = Fraction(1)
            while i in layers:
                nxt = layers.get(i + 1, 0)
                cap = Fraction(layers[i]) * Fraction(b_h, 1 + b_h) * (1 + b_h - i * kappa0) * delta
                assert nxt <= cap, (u, i)
                i += 1
        checked += 1


def test_vertex_count_bound_capped(monkeypatch):
    cap = VERTEX_COUNT_MAX_TERMS
    assert vertex_count_bound(2, 2, Fraction(2, cap)) > 0  # exactly at the cap
    with pytest.raises(errors.HypothesisNotMet):
        vertex_count_bound(2, 2, Fraction(2, cap + 1))
    hg = build("oriented", 2, [([0], [1], 1)], symmetrize=True)
    # A floor this small would need 2 * 10**6 terms.
    monkeypatch.setattr(bounds, "_least_limit", lambda ev, pairs: Fraction(1, 10**6))
    verdict = check_vertex_count(Evaluator(hg, all_pairs_distances(hg)))
    assert verdict.holds is None
    assert f"cap of {cap}" in verdict.witness
