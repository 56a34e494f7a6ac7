"""Pair/edge curvature values, limit stabilization, and structural invariants."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hypercurv import (
    Evaluator,
    all_pairs_distances,
    build,
    errors,
    kappa_alpha_edge_directed,
    kappa_alpha_edge_undirected,
    kappa_alpha_pair,
    lly_limit,
    well_transported_pairs,
)

from conftest import graph_as_hypergraph, random_graph_edges, random_undirected
from oracles import BruteGraphCurvature

GRID = [Fraction(k, 10) for k in range(10)] + [Fraction(99, 100)]


def test_h4_pair_values(h4, h4_oracle):
    assert kappa_alpha_pair(h4, h4_oracle, 1, 2, Fraction(1, 2)) == Fraction(3, 4)
    assert lly_limit(h4, h4_oracle, ("pair", 1, 2)).lly == Fraction(3, 2)
    assert lly_limit(h4, h4_oracle, ("pair", 0, 1)).lly == Fraction(1, 2)
    assert lly_limit(h4, h4_oracle, ("pair", 0, 2)).lly == Fraction(1, 2)


def test_h4_edge_values(h4, h4_oracle):
    assert lly_limit(h4, h4_oracle, ("edge", 0), variant="sum").lly == Fraction(5, 6)
    assert lly_limit(h4, h4_oracle, ("edge", 0), variant="min").lly == Fraction(5, 2)
    # normalized(x1,x2) tends to 1/2: check the curve at large alpha
    rep = lly_limit(h4, h4_oracle, ("pair", 0, 1))
    assert rep.curve.normalized[-1][1] == Fraction(1, 2)


def test_same_pair_rejected(h4, h4_oracle):
    with pytest.raises(errors.SamePair):
        kappa_alpha_pair(h4, h4_oracle, 1, 1, Fraction(1, 2))


def test_pair_curvature_unsupported_on_asymmetric_directed():
    hg = build("directed", 3, [([0], [1], 1), ([1], [2], 1), ([2], [0], 1)])
    oracle = all_pairs_distances(hg)
    assert not oracle.symmetric
    with pytest.raises(errors.UnsupportedFlavor):
        kappa_alpha_pair(hg, oracle, 0, 1, Fraction(1, 2))


def test_kappa_one_is_zero_for_pairs(h4, h4_oracle):
    for u in range(4):
        for v in range(u + 1, 4):
            assert kappa_alpha_pair(h4, h4_oracle, u, v, 1) == 0


def test_two_uniform_edge_equals_pair(h4, h4_oracle):
    for variant in ("min", "sum", "max"):
        edge_val = kappa_alpha_edge_undirected(h4, h4_oracle, 1, Fraction(1, 3), variant)
        pair_val = kappa_alpha_pair(h4, h4_oracle, 0, 3, Fraction(1, 3))
        assert edge_val == pair_val


def test_sandwich_between_pair_extremes():
    rng = random.Random(4001)
    for _ in range(8):
        hg = random_undirected(rng, n_max=6, extra_max=1)
        oracle = all_pairs_distances(hg)
        for e, edge in enumerate(hg.edges):
            vs = edge.sorted_vertices()
            for a in [Fraction(0), Fraction(2, 5), Fraction(4, 5)]:
                pair_vals = [
                    kappa_alpha_pair(hg, oracle, vs[i], vs[j], a)
                    for i in range(len(vs))
                    for j in range(i + 1, len(vs))
                ]
                edge_val = kappa_alpha_edge_undirected(hg, oracle, e, a, "sum")
                assert min(pair_vals) <= edge_val <= max(pair_vals)


def test_monotone_and_concave_on_h4(h4, h4_oracle):
    targets = [("pair", u, v) for u in range(4) for v in range(u + 1, 4)]
    targets += [("edge", 0), ("edge", 1)]
    ev = Evaluator(h4, h4_oracle)
    for target in targets:
        rep = lly_limit(h4, h4_oracle, target, alpha_grid=GRID)
        gs = [g for _a, g in rep.curve.normalized]
        assert all(g1 <= g2 for g1, g2 in zip(gs, gs[1:]))
        kappas = dict(rep.curve.samples)
        for a in GRID:
            for c in GRID:
                if a < c:
                    mid = (a + c) / 2
                    k_mid = ev.kappa(target, mid, "sum")
                    assert 2 * k_mid >= kappas[a] + kappas[c]


def test_lower_bound_propagation():
    rng = random.Random(4002)
    for _ in range(6):
        hg = random_undirected(rng, n_max=5, extra_max=1)
        oracle = all_pairs_distances(hg)
        wt = well_transported_pairs(hg, oracle)
        assert wt, "every edge contributes at least its closest pair"
        wt_min = min(lly_limit(hg, oracle, ("pair", u, v)).lly for (u, v, _e) in wt)
        all_min = min(
            lly_limit(hg, oracle, ("pair", u, v)).lly
            for u in range(hg.n_vertices)
            for v in range(u + 1, hg.n_vertices)
        )
        assert all_min >= wt_min


def test_well_transported_h4(h4, h4_oracle):
    assert well_transported_pairs(h4, h4_oracle) == [(0, 1, 0), (0, 2, 0), (0, 3, 1), (1, 2, 0)]


def test_well_transported_excludes_bypassed_edge():
    hg = build("undirected", 3, [([0, 1], 5), ([0, 2], 1), ([1, 2], 1)])
    oracle = all_pairs_distances(hg)
    triples = well_transported_pairs(hg, oracle)
    assert (0, 1, 0) not in triples  # d(0,1)=2 < 5, the heavy edge is bypassed
    assert (0, 2, 1) in triples and (1, 2, 2) in triples


def test_single_edge_well_transported():
    hg = build("undirected", 2, [([0, 1], 3)])
    oracle = all_pairs_distances(hg)
    assert well_transported_pairs(hg, oracle) == [(0, 1, 0)]


def test_directed_edge_kappa_one_nonpositive():
    hg = build("directed", 3, [([0, 1], [2], 1), ([2], [0], 1), ([2], [1], 1)])
    oracle = all_pairs_distances(hg)
    assert kappa_alpha_edge_directed(hg, oracle, 0, 1) <= 0


def test_directed_lly_divergence_detected():
    # expensive edge bypassed for one tail vertex only: kappa_1 < 0
    hg = build("directed", 3, [([0, 1], [2], 5), ([2], [0], 1), ([2], [1], 5), ([0], [2], 1)])
    oracle = all_pairs_distances(hg)
    with pytest.raises(errors.NoStabilization):
        lly_limit(hg, oracle, ("edge", 0))


def test_oriented_pair_order_matters_only_in_measures():
    hg = build("oriented", 3, [([0], [1], 1), ([1], [2], 1), ([0], [2], 1)], symmetrize=True)
    oracle = all_pairs_distances(hg)
    assert oracle.symmetric
    k01 = lly_limit(hg, oracle, ("pair", 0, 1)).lly
    k10 = lly_limit(hg, oracle, ("pair", 1, 0)).lly
    assert k01 > 0 and k10 > 0


def test_graph_degeneration_matches_independent_oracle():
    rng = random.Random(4003)
    for _ in range(3):
        n, edges = random_graph_edges(rng, n_max=6)
        hg = graph_as_hypergraph(n, edges)
        oracle = all_pairs_distances(hg)
        brute = BruteGraphCurvature(n, edges)
        for u in range(n):
            for v in range(u + 1, n):
                ours = lly_limit(hg, oracle, ("pair", u, v))
                theirs, _alpha = brute.lly(u, v)
                assert ours.lly == theirs, (u, v)


def test_stabilization_alpha_is_dyadic(h4, h4_oracle):
    rep = lly_limit(h4, h4_oracle, ("pair", 1, 2))
    assert rep.stabilization_alpha == Fraction(3, 4)
    den = rep.stabilization_alpha.denominator
    assert den & (den - 1) == 0  # power of two


def test_float_mode_matches_exact(h4, h4_oracle):
    exact = lly_limit(h4, h4_oracle, ("pair", 1, 2)).lly
    approx = lly_limit(h4, h4_oracle, ("pair", 1, 2), exact=False).lly
    assert abs(float(exact) - approx) <= 1e-9


def test_size_four_hyperedge_full_pipeline():
    # one 4-vertex hyperedge plus a pendant: 6 internal pairs, L_sum = 6
    hg = build("undirected", 5, [([0, 1, 2, 3], 1), ([3, 4], 2)])
    oracle = all_pairs_distances(hg)
    assert edge_len_sum(hg, oracle, 0) == 6
    for a in [Fraction(0), Fraction(1, 2), Fraction(9, 10)]:
        vs = hg.edges[0].sorted_vertices()
        pair_vals = [
            kappa_alpha_pair(hg, oracle, vs[i], vs[j], a)
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        edge_val = kappa_alpha_edge_undirected(hg, oracle, 0, a, "sum")
        assert min(pair_vals) <= edge_val <= max(pair_vals)
    rep = lly_limit(hg, oracle, ("edge", 0), variant="sum")
    assert rep.lly == sum(
        lly_limit(hg, oracle, ("pair", u, v)).lly * oracle.d(u, v)
        for u in range(4)
        for v in range(u + 1, 4)
    ) / 6


def edge_len_sum(hg, oracle, e):
    from hypercurv import edge_length

    return edge_length(hg, oracle, e, "sum").value
