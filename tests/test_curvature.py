"""Pair/edge curvature values, limit stabilization, and structural invariants."""

from __future__ import annotations

import argparse
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from hypercurv import (
    Evaluator,
    all_pairs_distances,
    build,
    curvature_pairs,
    errors,
    kappa_alpha_edge_directed,
    kappa_alpha_edge_undirected,
    kappa_alpha_pair,
    lly_limit,
    well_transported_pairs,
)
from hypercurv.cli import _resolve_targets
from hypercurv.curvature import DEFAULT_ALPHA_GRID
from hypercurv.metric import scaled_edge_length

from conftest import (
    curvature_targets,
    default_curve,
    directed_corpus,
    graph_as_hypergraph,
    named_document,
    oriented_corpus,
    random_directed,
    random_graph_edges,
    random_oriented_unit,
    random_undirected,
    undirected_corpus,
)
from oracles import BruteGraphCurvature, limit_free_lly

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
    _samples, normalized = default_curve(Evaluator(h4, h4_oracle), ("pair", 0, 1))
    assert normalized[-1] == (Fraction(99, 100), Fraction(1, 2))


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
            vs = edge.sorted_tail()
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
        samples, normalized = default_curve(Evaluator(h4, h4_oracle), target)
        gs = [g for _a, g in normalized]
        assert all(g1 <= g2 for g1, g2 in zip(gs, gs[1:]))
        kappas = dict(samples)
        for a in GRID:
            for c in GRID:
                if a < c:
                    mid = (a + c) / 2
                    k_mid = ev.kappa(target, mid, "sum")
                    assert 2 * k_mid >= kappas[a] + kappas[c]


CONCAVITY_CORPORA = {
    "undirected": lambda: undirected_corpus(7201, 8, n_max=6, extra_max=2),
    "directed": lambda: directed_corpus(7202, 8, n_max=5, m_max=7),
    "oriented": lambda: oriented_corpus(7203, 6, n_max=5, extra_max=2),
}


@pytest.mark.parametrize("flavor", sorted(CONCAVITY_CORPORA))
def test_kappa_concave_on_default_grid(flavor):
    """kappa(mid) >= (kappa(a) + kappa(b)) / 2 exactly, for every grid pair a < b.

    The measures are affine in alpha, so W is convex and kappa concave; the
    dyadic limit certificate rests on this.
    """
    checked = 0
    for hg in CONCAVITY_CORPORA[flavor]():
        ev = Evaluator(hg, all_pairs_distances(hg))
        for target, variant in curvature_targets(hg, ev.oracle):
            kappa = {a: ev.kappa(target, a, variant) for a in DEFAULT_ALPHA_GRID}
            for a, b in combinations(DEFAULT_ALPHA_GRID, 2):
                assert 2 * ev.kappa(target, (a + b) / 2, variant) >= kappa[a] + kappa[b]
                checked += 1
    assert checked > 0


RANDOM_INSTANCES = {
    "undirected": random_undirected,
    "directed": random_directed,
    "oriented": random_oriented_unit,
}


@pytest.mark.parametrize("flavor", sorted(CONCAVITY_CORPORA))
def test_kappa_concave_over_its_merged_lines(flavor):
    """Exact concavity of kappa, read off the lines that ``Evaluator._merged``
    sums from its transports over [0, 1], on the corpus above and on a
    stream of ``random_instances``.

    The lines run contiguously from 0 to 1 and meet ``kappa`` at their
    ends; the slopes of consecutive lines never increase. Where kappa(1) =
    0, g = kappa / (1 - alpha) never decreases: on a line g moves with the
    line's value at alpha = 1, which concavity keeps at or above kappa(1).
    """
    rng = random.Random(7211)
    corpus = CONCAVITY_CORPORA[flavor]() + [RANDOM_INSTANCES[flavor](rng) for _ in range(6)]
    kinks = vanishing = 0
    for hg in corpus:
        ev = Evaluator(hg, all_pairs_distances(hg))
        for target, variant in curvature_targets(hg, ev.oracle):
            lines, den = ev._merged(*ev._target(target, variant), (0, 1))
            assert lines[0].lo_num == 0 and lines[-1].hi_num == lines[-1].hi_den
            ends = []
            for line in lines:
                lo = Fraction(line.lo_num, line.lo_den)
                hi = Fraction(line.hi_num, line.hi_den)
                assert lo < hi
                for b in (lo, hi):
                    value = line.at(b.numerator, b.denominator)
                    assert Fraction(value, b.denominator * den) == ev.kappa(target, b, variant)
                ends.append((lo, hi))
            for (_lo, hi), (lo, _hi) in zip(ends, ends[1:]):
                assert hi == lo
            for below, above in zip(lines, lines[1:]):
                assert above.w1 - above.w0 <= below.w1 - below.w0, (target, variant)
                kinks += above.w1 - above.w0 < below.w1 - below.w0
            if lines[-1].w1 == 0:
                vanishing += 1
                assert all(line.w1 >= 0 for line in lines), (target, variant)
                gs = [
                    Fraction(line.at(lo.numerator, lo.denominator), (lo.denominator - lo.numerator) * den)
                    for line, (lo, _hi) in zip(lines, ends)
                ]
                assert all(g <= h for g, h in zip(gs, gs[1:])), (target, variant)
    # Curves with kinks, and targets whose kappa vanishes at alpha = 1.
    assert kinks > 10 and vanishing > 10


def test_report_reads_an_unsorted_grid(h4, h4_oracle):
    """``curve_ints`` walks kappa's lines in ascending alpha and puts each
    value back in the grid's own order, repeats included."""
    grid = [Fraction(9, 10), Fraction(1, 10), Fraction(1), Fraction(0), Fraction(1, 2), Fraction(1, 2)]
    ev = Evaluator(h4, h4_oracle)
    for target in (("pair", 1, 2), ("edge", 0), ("edge", 1)):
        values, den = ev.curve_ints(target, "sum", grid)
        assert [Fraction(v, a.denominator * den) for a, v in zip(grid, values)] == [
            ev.kappa(target, a) for a in grid
        ]
        assert [
            Fraction(v, (a.denominator - a.numerator) * den) for a, v in zip(grid, values) if a != 1
        ] == [ev.kappa(target, a) / (1 - a) for a in grid if a != 1]


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


PAIR_CORPORA = {
    "undirected": lambda: undirected_corpus(7301, 30),
    "directed": lambda: directed_corpus(7302, 30),
    "oriented": lambda: oriented_corpus(7303, 30),
}


@pytest.mark.parametrize("flavor", sorted(PAIR_CORPORA))
def test_curvature_pairs_follow_the_flavor_and_match_curvature_all(flavor):
    """u < v when undirected, u != v when oriented, none when directed, in
    lexicographic order; and exactly the pair targets ``curvature --all`` runs."""
    for hg in PAIR_CORPORA[flavor]():
        vertices = range(hg.n_vertices)
        expected = {
            "undirected": list(combinations(vertices, 2)),  # n(n-1)/2, lexicographic
            "oriented": list(permutations(vertices, 2)),  # n(n-1), lexicographic
            "directed": [],
        }
        pairs = curvature_pairs(hg)
        assert pairs == expected[flavor]
        targets = _resolve_targets(named_document(hg), argparse.Namespace(all=True))
        assert sorted(t[1:] for _name, t in targets if t[0] == "pair") == pairs


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
    """At alpha = 1 every unit of mass pays at least L(h), the least
    tail-to-head distance, so kappa(1) <= 0: a limit diverges only where it
    is negative, the one case the limit search refuses."""
    hg = build("directed", 3, [([0, 1], [2], 1), ([2], [0], 1), ([2], [1], 1)])
    oracle = all_pairs_distances(hg)
    assert kappa_alpha_edge_directed(hg, oracle, 0, 1) <= 0
    signs = set()
    for hg in directed_corpus(31, 40) + oriented_corpus(32, 20):
        oracle = all_pairs_distances(hg)
        for e in range(hg.n_edges):
            kappa_one = kappa_alpha_edge_directed(hg, oracle, e, 1)
            assert kappa_one <= 0, (hg.edges, e)
            signs.add(kappa_one < 0)
    assert signs == {False, True}


def _directed_cycle():
    hg = build("directed", 3, [([0], [1], 1), ([1], [2], 1), ([2], [0], 1)])
    return hg, all_pairs_distances(hg)


def _two_vertices():
    hg = build("undirected", 2, [([0, 1], 1)])
    return hg, all_pairs_distances(hg)


GUARDS = {
    "edge-undirected-on-directed": (
        lambda: kappa_alpha_edge_undirected(*_directed_cycle(), 0, 0),
        errors.UnsupportedFlavor,
        "use kappa_alpha_edge_directed for directed flavors",
    ),
    "edge-directed-on-undirected": (
        lambda: kappa_alpha_edge_directed(*_two_vertices(), 0, 0),
        errors.UnsupportedFlavor,
        "use kappa_alpha_edge_undirected for the undirected flavor",
    ),
    "well-transported-on-directed": (
        lambda: well_transported_pairs(*_directed_cycle()),
        errors.UnsupportedFlavor,
        "well-transported pairs are an undirected notion",
    ),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS)
def test_guards_a_library_caller_can_reach(call, error, message):
    """Each one-shot wrapper refuses a flavor it does not apply to."""
    with pytest.raises(error, match=message):
        call()


def test_directed_lly_divergence_detected():
    # expensive edge bypassed for one tail vertex only: kappa_1 < 0
    hg = build("directed", 3, [([0, 1], [2], 5), ([2], [0], 1), ([2], [1], 5), ([0], [2], 1)])
    oracle = all_pairs_distances(hg)
    with pytest.raises(errors.NoStabilization):
        lly_limit(hg, oracle, ("edge", 0))


def test_oriented_pair_curvature_is_symmetric():
    """Reversal closure makes each in-walk the out-walk, and the distance is symmetric."""
    hg = build("oriented", 3, [([0], [1], 1), ([1], [2], 1), ([0], [2], 1)], symmetrize=True)
    oracle = all_pairs_distances(hg)
    assert oracle.symmetric
    k01 = lly_limit(hg, oracle, ("pair", 0, 1)).lly
    k10 = lly_limit(hg, oracle, ("pair", 1, 0)).lly
    assert k01 > 0 and k01 == k10


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


def test_size_four_hyperedge_full_pipeline():
    # one 4-vertex hyperedge plus a pendant: 6 internal pairs, L_sum = 6
    hg = build("undirected", 5, [([0, 1, 2, 3], 1), ([3, 4], 2)])
    oracle = all_pairs_distances(hg)
    assert scaled_edge_length(hg, oracle, 0, "sum") == 6 * oracle.scale
    for a in [Fraction(0), Fraction(1, 2), Fraction(9, 10)]:
        vs = hg.edges[0].sorted_tail()
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


def _unit_graphs(seed, count):
    """Random connected unit-weight graphs with a degree cap of 3, as hypergraphs."""
    rng = random.Random(seed)
    for _ in range(count):
        n, edges = random_graph_edges(rng)
        edges = {pair: Fraction(1) for pair in edges}
        yield n, edges, graph_as_hypergraph(n, edges)


def test_limit_matches_limit_free_oracle_on_graph_edges():
    """The limit read off the final piece equals the Münch-Wojciechowski
    infimum, which needs neither a transport solve nor a limit."""
    checked = 0
    for n, edges, hg in _unit_graphs(4242, 30):
        ev = Evaluator(hg, all_pairs_distances(hg))
        for pair in edges:
            x, y = sorted(pair)
            assert ev.limit(("pair", x, y)).lly == limit_free_lly(n, edges, x, y), (edges, x, y)
            checked += 1
    assert checked > 150


def _unit_hypergraphs(seed, count):
    """Random connected unit-weight undirected hypergraphs on 3-7 vertices,
    hyperedges of 2-4 vertices, repeated hyperedges allowed: ``(n, edges, hg)``."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 7)
        order = list(range(n))
        rng.shuffle(order)
        covered, fresh, edges = order[:1], order[1:], []
        while fresh:
            new = [fresh.pop() for _ in range(min(len(fresh), rng.randint(1, 3)))]
            old = rng.sample(covered, min(len(covered), rng.randint(1, 4 - len(new))))
            edges.append(sorted(new + old))
            covered += new
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.3:
                edges.append(rng.choice(edges))
            else:
                edges.append(sorted(rng.sample(range(n), rng.randint(2, min(4, n)))))
        yield n, edges, build("undirected", n, [(members, 1) for members in edges])


def test_limit_matches_limit_free_oracle_on_hypergraph_pairs():
    """On unit-weight hypergraphs, every pair sharing a hyperedge has the
    Münch-Wojciechowski infimum of the clique expansion's weighted walk as
    its limit."""
    checked = 0
    for n, edges, hg in _unit_hypergraphs(2718, 150):
        ev = Evaluator(hg, all_pairs_distances(hg))
        pairs = {pair for members in edges for pair in combinations(members, 2)}
        for x, y in sorted(pairs):
            assert ev.limit(("pair", x, y)).lly == limit_free_lly(n, edges, x, y), (edges, x, y)
            checked += 1
    assert checked > 1000


def _idleness_parts(graphs) -> set[int]:
    """Bourne-Cushing-Liu-Münch-Peyerimhoff (SIAM J. Discrete Math. 2018):
    for adjacent x and y of a graph, kappa_alpha(x, y) has at most 3 linear
    parts and is linear on [1/(max(deg x, deg y) + 1), 1]. Both are read off
    the traced chain of W; the final line starts at the last breakpoint,
    where g = kappa / (1 - alpha) already equals the limit. Returns the part
    counts seen."""
    parts_seen = set()
    for n, edges, hg in graphs:
        ev = Evaluator(hg, all_pairs_distances(hg))
        degree = [sum(v in pair for pair in edges) for v in range(n)]
        for pair in edges:
            x, y = sorted(pair)
            kinks = ev.breakpoints(("pair", x, y))
            parts_seen.add(len(kinks) + 1)
            assert len(kinks) + 1 <= 3, (edges, x, y, kinks)
            alpha_lo = max(kinks, default=Fraction(0))
            g = ev.kappa(("pair", x, y), alpha_lo) / (1 - alpha_lo)
            assert g == ev.limit(("pair", x, y)).lly, (edges, x, y, kinks)
            assert alpha_lo <= Fraction(1, max(degree[x], degree[y]) + 1), (edges, x, y, kinks)
    return parts_seen


def test_idleness_function_invariants_on_graph_edges():
    assert _idleness_parts(_unit_graphs(4243, 40)) == {1, 2, 3}


def _cyclic_unit_graphs(seed, count):
    """Random connected unit-weight graphs of 5-30 vertices, each with a cycle:
    a random recursive tree plus 1 to n/4 chords."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(5, 30)
        edges = {frozenset((v, rng.randrange(v))): Fraction(1) for v in range(1, n)}
        size = n - 1 + rng.randint(1, n // 4)
        while len(edges) < size:
            edges[frozenset(rng.sample(range(n), 2))] = Fraction(1)
        yield n, edges, graph_as_hypergraph(n, edges)


def test_idleness_function_invariants_on_larger_graphs():
    """The same two invariants on 150 graphs of up to 30 vertices with cycles."""
    assert _idleness_parts(_cyclic_unit_graphs(4244, 150)) == {1, 2, 3}
