"""Int walk spreads, transport families and ledger partitions against their Fraction references.

The Evaluator's transport families, the walk measures, the neighbourhood
partitions and the head spreads are built from int edge weights and
``oracle.table``; ``tests/oracles.py`` keeps the Fraction formulas they
replaced. Whole verdict ledgers are pinned by digest, recorded from the
Fraction ledger.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercurv import Evaluator, all_pairs_distances, build, verdict_ledger
from hypercurv.bounds import check_directed_edge_bound
from hypercurv.hypergraph import ORIENTED, UNDIRECTED
from hypercurv.metric import partition_neighborhood
from hypercurv.walk import (
    _pair_measure,
    measure_directed_in,
    measure_directed_out,
    measure_set,
    measure_undirected,
    spread,
)

from conftest import (
    curvature_targets,
    directed_corpus,
    oriented_corpus,
    random_directed,
    random_oriented_unit,
    random_undirected,
    undirected_corpus,
)
from oracles import (
    reference_family,
    reference_head_spread,
    reference_measure,
    reference_partition_neighborhood,
)

ALPHAS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))
ODD_WEIGHTS = (Fraction(1, 3), Fraction(7, 2), Fraction(1), Fraction(2, 5), Fraction(5))


def _tail_in_tail():
    """Directed instance where tail vertex 0 of edge 1 feeds tail vertex 1.

    The tail measure of edge 1 then keeps mass at vertex 0 at alpha 0.
    """
    return build(
        "directed",
        4,
        [([0], [1], 2), ([0, 1], [2], Fraction(1, 3)), ([2], [3], 1), ([3], [0], Fraction(7, 2))],
    )


def _shared_in_neighbours():
    """Directed instance whose tail vertices 0 and 1 share their in-neighbours 2 and 3.

    The tail measure of edge 4 at alpha 0 sums two equal in-walks, and only
    in lowest terms does its denominator match the Fraction scale.
    """
    return build(
        "directed",
        4,
        [
            ([2], [0], 1),
            ([3], [0], 1),
            ([2], [1], 1),
            ([3], [1], 1),
            ([0, 1], [2], 1),
            ([0, 1], [3], 1),
        ],
    )


CORPORA = {
    "undirected": lambda: undirected_corpus(7201, 12),
    "directed": lambda: directed_corpus(7202, 12) + [_tail_in_tail(), _shared_in_neighbours()],
    "oriented": lambda: oriented_corpus(7203, 12),
}


def _family_keys(hg, oracle):
    keys = {("edge", e) for e in range(hg.n_edges)} if hg.flavor != UNDIRECTED else set()
    for target, _variant in curvature_targets(hg, oracle):
        if target[0] == "pair":
            keys.add(target)
        elif hg.flavor == UNDIRECTED:
            vs = hg.edges[target[1]].sorted_vertices()
            keys.update(("pair", u, v) for i, u in enumerate(vs) for v in vs[i + 1 :])
    return sorted(keys)


def _check_families(hg):
    oracle = all_pairs_distances(hg)
    ev = Evaluator(hg, oracle)
    for key in _family_keys(hg, oracle):
        assert tuple(ev._family(key)) == reference_family(hg, key), key


def _check_measures(hg):
    for a in ALPHAS:
        if hg.flavor == UNDIRECTED:
            for x in range(hg.n_vertices):
                expected = reference_measure(hg, "undirected", x, None, a)
                assert measure_undirected(hg, x, a).mass == expected
            continue
        for x in range(hg.n_vertices):
            for direction in ("in", "out"):
                expected = reference_measure(hg, "pair", x, direction, a)
                assert _pair_measure(hg, x, direction, a).mass == expected
        for e, edge in enumerate(hg.edges):
            for side in ("tail", "head"):
                assert measure_set(hg, e, side, a).mass == reference_measure(hg, "set", e, side, a)
            for i, x in enumerate(edge.sorted_tail()):
                expected = reference_measure(hg, "pair", x, "in", a)
                n = len(edge.tail)
                got = measure_directed_in(hg, e, i, a).mass
                assert got == {v: m / n for v, m in expected.items()}
            for j, y in enumerate(edge.sorted_head()):
                expected = reference_measure(hg, "pair", y, "out", a)
                m = len(edge.head)
                got = measure_directed_out(hg, e, j, a).mass
                assert got == {v: w / m for v, w in expected.items()}


def _check_partitions(hg):
    oracle = all_pairs_distances(hg)
    refs = [*range(hg.n_vertices)]
    if hg.flavor != UNDIRECTED:
        refs += [edge.sorted_tail() for edge in hg.edges]
        refs += [edge.sorted_head() for edge in hg.edges]
    for ref in refs:
        for anchor in range(hg.n_vertices):
            got = partition_neighborhood(hg, oracle, ref, anchor)
            assert tuple(got) == reference_partition_neighborhood(hg, oracle, ref, anchor)
    if hg.flavor != UNDIRECTED:
        # The ledger reads each head spread of y off its out-walk step,
        # which divides it by out_weight(y).
        for y in range(hg.n_vertices):
            walk, den = spread(hg, "out", y)
            for z in range(hg.n_vertices):
                expected = reference_head_spread(hg, y, z)
                assert Fraction(walk.get(z, 0), den) * hg.out_weight(y) == expected


def _check_head_constants(hg):
    """The per-head constants of the directed partition bound, on Fractions."""
    if hg.flavor == UNDIRECTED:
        return
    oracle = all_pairs_distances(hg)
    ev = Evaluator(hg, oracle)
    w_ratio = hg.max_weight() / hg.min_weight()
    b_max = max(len(edge.head) for edge in hg.edges)
    for e, edge in enumerate(hg.edges):
        _verdict, data = check_directed_edge_bound(hg, oracle, e, Fraction(1, 3), ev=ev)
        assert [h.vertex for h in data.per_head] == sorted(edge.head)
        for head in data.per_head:
            y = head.vertex
            _ref, _y, _base, closer, _level, farther, c1, c2 = reference_partition_neighborhood(
                hg, oracle, edge.tail, y
            )
            c_exact = c_estimate = Fraction(0)
            if closer:
                s_minus = sum(reference_head_spread(hg, y, z) for z in closer)
                c_exact += c1 * s_minus / hg.out_weight(y)
                c_estimate += c1 * len(closer) * w_ratio
            if farther:
                s_plus = sum(reference_head_spread(hg, y, z) for z in farther)
                c_exact -= c2 * s_plus / hg.out_weight(y)
                c_estimate -= c2 * Fraction(len(farther), b_max)
            assert (head.c_exact, head.c_estimate) == (c_exact, c_estimate), (e, y)


@pytest.mark.parametrize("flavor", sorted(CORPORA))
def test_families_measures_and_partitions_match_the_fraction_references(flavor):
    for hg in CORPORA[flavor]():
        _check_families(hg)
        _check_measures(hg)
        _check_partitions(hg)
        _check_head_constants(hg)


def test_corpus_has_a_tail_vertex_that_keeps_mass_at_alpha_zero():
    """The set-measure scale case: a tail vertex inside another tail vertex's in-neighbourhood."""
    hg = _tail_in_tail()
    assert measure_set(hg, 1, "tail", 0)[0] > 0
    found = 0
    for hg in CORPORA["directed"]():
        for e, edge in enumerate(hg.edges):
            if any(measure_set(hg, e, "tail", 0)[x] for x in edge.tail):
                found += 1
    assert found > 1


def _reweighted(hg, weights):
    """``hg`` with its listed hyperedges reweighted from ``weights``, cyclically."""
    w = [weights[k % len(weights)] for k in range(hg.n_edges)]
    if hg.flavor == UNDIRECTED:
        edges = [(sorted(e.vertices), w[k]) for k, e in enumerate(hg.edges)]
        return build(hg.flavor, hg.n_vertices, edges)
    if hg.flavor == ORIENTED:
        # The generator lists each edge, then all the reversals.
        listed = hg.edges[: hg.n_edges // 2]
        edges = [(sorted(e.tail), sorted(e.head), w[k]) for k, e in enumerate(listed)]
        return build(hg.flavor, hg.n_vertices, edges, symmetrize=True)
    edges = [(sorted(e.tail), sorted(e.head), w[k]) for k, e in enumerate(hg.edges)]
    return build(hg.flavor, hg.n_vertices, edges)


@given(
    st.integers(0, 10**6),
    st.sampled_from(("undirected", "directed", "oriented")),
    st.lists(st.sampled_from(ODD_WEIGHTS), min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_int_paths_match_on_odd_weights(seed, flavor, weights):
    rng = random.Random(seed)
    if flavor == "undirected":
        hg = random_undirected(rng, n_max=6)
    elif flavor == "directed":
        hg = random_directed(rng, n_max=5, m_max=7)
    else:
        hg = random_oriented_unit(rng, n_max=5)
    hg = _reweighted(hg, weights)
    _check_families(hg)
    _check_measures(hg)
    _check_partitions(hg)
    _check_head_constants(hg)


def _plain(value):
    """``value`` with frozensets sorted and named tuples spelled out, for a stable repr."""
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return (type(value).__name__, [(f, _plain(getattr(value, f))) for f in value._fields])
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _ledger_digest(flavor):
    lines = []
    for hg in CORPORA[flavor]():
        oracle = all_pairs_distances(hg)
        ev = Evaluator(hg, oracle)
        for a in (Fraction(0), Fraction(1, 2), Fraction(1)):
            for variant in ("min", "sum", "max"):
                lines.extend(repr(_plain(v)) for v in verdict_ledger(hg, oracle, a, variant, ev=ev))
            if hg.flavor != UNDIRECTED:
                for e in range(hg.n_edges):
                    lines.append(repr(_plain(check_directed_edge_bound(hg, oracle, e, a, ev=ev))))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# Recorded from the ledger that built its partitions, spreads and sides on Fractions.
LEDGER_DIGESTS = {
    "directed": "f9fe4efab3267351b737bc8f6734b99cfbe321d52033dc48de3cdbae9693da6a",
    "oriented": "06d5c16d3606e67292f2c1e9c90df7cf1e220aca0b1b585130e5014cc6922d8d",
    "undirected": "b892a4467960dc98bc047ae2523a4507a03f17fdff9ee3732abc90137d5b02d0",
}


@pytest.mark.parametrize("flavor", sorted(CORPORA))
def test_verdict_ledgers_are_pinned(flavor):
    assert _ledger_digest(flavor) == LEDGER_DIGESTS[flavor]


if __name__ == "__main__":
    print({flavor: _ledger_digest(flavor) for flavor in sorted(CORPORA)})
