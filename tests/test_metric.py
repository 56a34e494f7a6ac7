"""Distances, lengths, the bounds' distance partitions, and their brute-force cross-checks."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hypercurv import DistanceOracle, all_pairs_distances, build, errors
from hypercurv.bounds import _split
from hypercurv.metric import scaled_edge_length

from conftest import (
    directed_corpus,
    oriented_corpus,
    random_directed,
    random_undirected,
    undirected_corpus,
)
from oracles import brute_hyperpath_distances, out_neighbourhood, reference_split


def test_h4_distances(h4, h4_oracle):
    assert h4_oracle.d(1, 3) == 2
    assert h4_oracle.d(1, 2) == 1
    assert all(h4_oracle.d(u, u) == 0 for u in range(4))
    assert h4_oracle.symmetric
    assert h4_oracle.diameter() == 2


def test_single_edge_diameter():
    hg = build("undirected", 2, [([0, 1], 3)])
    assert all_pairs_distances(hg).diameter() == 3


def test_directed_cycle_diameter_and_asymmetry():
    hg = build("directed", 3, [([0], [1], 1), ([1], [2], 1), ([2], [0], 1)])
    oracle = all_pairs_distances(hg)
    assert oracle.diameter() == 2
    assert not oracle.symmetric
    assert oracle.d(0, 1) == 1
    assert oracle.d(1, 0) == 2


def _length(hg, oracle, e, variant):
    return Fraction(scaled_edge_length(hg, oracle, e, variant), oracle.scale)


def test_edge_lengths_h4(h4, h4_oracle):
    assert _length(h4, h4_oracle, 0, "min") == 1
    assert _length(h4, h4_oracle, 0, "sum") == 3
    assert _length(h4, h4_oracle, 0, "max") == 1
    assert _length(h4, h4_oracle, 1, "min") == _length(h4, h4_oracle, 1, "sum") == 1


def test_directed_length_min_only():
    hg = build("directed", 2, [([0], [1], 1), ([1], [0], 1)])
    oracle = all_pairs_distances(hg)
    assert _length(hg, oracle, 0, "min") == 1
    with pytest.raises(errors.UnsupportedVariant):
        scaled_edge_length(hg, oracle, 0, "sum")


def _checked_split(hg, oracle, ref, anchor):
    """``_split`` of the out-neighbourhood of ``anchor``, checked against the reference."""
    got = _split(oracle, (ref,), anchor, out_neighbourhood(hg, anchor))
    assert got == reference_split(hg, oracle, ref, anchor)
    return got


def test_partition_oriented_path():
    hg = build("oriented", 3, [([0], [1], 1), ([1], [2], 1)], symmetrize=True)
    oracle = all_pairs_distances(hg)
    assert _checked_split(hg, oracle, 0, 1) == ({0: 1}, {2: 1})


def test_partition_all_neighbors_farther():
    hg = build(
        "directed",
        4,
        [([0], [1], 1), ([1], [2], 1), ([1], [3], 1), ([2], [0], 1), ([3], [0], 1), ([0], [2], 2), ([0], [3], 2)],
    )
    oracle = all_pairs_distances(hg)
    assert oracle.d(0, 1) == 1
    # d(0,2)=d(0,3)=2: both farther, none at the anchor's distance
    assert _checked_split(hg, oracle, 0, 1) == ({}, {2: 1, 3: 1})


def test_partition_equidistant_neighbor_lands_in_level_class():
    # the anchor's only out-neighbor sits at the anchor's own distance from ref
    hg = build("directed", 3, [([0], [1], 1), ([0], [2], 1), ([1], [2], 1), ([2], [0], 1)])
    oracle = all_pairs_distances(hg)
    assert oracle.d(0, 1) == oracle.d(0, 2) == 1
    assert hg.edges_with_tail(1) == (2,)
    assert _checked_split(hg, oracle, 0, 1) == ({}, {})


def _check_against_brute(hg):
    oracle = all_pairs_distances(hg)
    brute = brute_hyperpath_distances(hg)
    for u in range(hg.n_vertices):
        for v in range(hg.n_vertices):
            assert oracle.d(u, v) == brute[u][v], (u, v)


def test_distances_match_sequence_enumeration_undirected():
    rng = random.Random(1001)
    for _ in range(8):
        hg = random_undirected(rng, n_max=6, extra_max=1)
        if hg.n_edges <= 6:
            _check_against_brute(hg)


def test_distances_match_sequence_enumeration_directed():
    rng = random.Random(1002)
    count = 0
    while count < 8:
        hg = random_directed(rng, n_max=5, m_max=6)
        if hg.n_edges <= 6:
            _check_against_brute(hg)
            count += 1


def _reweighted(hg, rng, den):
    """``hg`` with random weights over ``den``; an edge and its reversal share one."""
    weights = {}

    def weight(key):
        return weights.setdefault(key, Fraction(rng.randint(1, 4 * den), den))

    if hg.flavor == "undirected":
        edges = [(sorted(e.tail), weight(k)) for k, e in enumerate(hg.edges)]
    else:
        edges = [
            (sorted(e.tail), sorted(e.head), weight(frozenset((e.tail, e.head))))
            for e in hg.edges
        ]
    return build(hg.flavor, hg.n_vertices, edges)


@pytest.mark.parametrize("den", [2, 3, 7, 2**20])
def test_int_table_matches_sequence_enumeration(den):
    """The int Dijkstra table over its scale is the brute-force hyperpath table."""
    rng = random.Random(1005 + den)
    corpus = (
        undirected_corpus(1006, 6, n_max=6, extra_max=1)
        + directed_corpus(1007, 6, n_max=5, m_max=6)
        + oriented_corpus(1008, 6, n_max=4, extra_max=1)
    )
    checked = 0
    for base in corpus:
        if base.n_edges > 6:
            continue
        hg = _reweighted(base, rng, den)
        oracle = all_pairs_distances(hg)
        brute = brute_hyperpath_distances(hg)
        assert all(type(x) is int for row in oracle.table for x in row)
        for u in range(hg.n_vertices):
            for v in range(hg.n_vertices):
                assert Fraction(oracle.table[u][v], oracle.scale) == brute[u][v], (u, v)
                assert oracle.d(u, v) == brute[u][v]
        assert oracle.diameter() == max(max(row) for row in brute)
        checked += 1
    assert checked >= 12


def test_oracle_from_fraction_table_keeps_values():
    dist = ((Fraction(0), Fraction(1, 2), Fraction(2, 3)), (Fraction(3, 7), 0, 1), (1, 2, 0))
    oracle = DistanceOracle(dist=dist, symmetric=False)
    assert oracle.scale == 42 and oracle.n == 3
    assert all(oracle.d(u, v) == dist[u][v] for u in range(3) for v in range(3))
    assert oracle.diameter() == 2
    with pytest.raises(errors.MissingDistance, match=r"\(3, 0\)"):
        oracle.d(3, 0)


def test_triangle_inequality_and_symmetry_flags():
    rng = random.Random(1003)
    for make in (random_undirected, random_directed):
        for _ in range(6):
            hg = make(rng)
            oracle = all_pairs_distances(hg)
            n = hg.n_vertices
            for u in range(n):
                for v in range(n):
                    for w in range(n):
                        assert oracle.d(u, w) <= oracle.d(u, v) + oracle.d(v, w)
            if hg.flavor == "undirected":
                assert oracle.symmetric
            if oracle.symmetric:
                assert all(
                    oracle.d(u, v) == oracle.d(v, u) for u in range(n) for v in range(n)
                )


def test_length_invariants_random():
    rng = random.Random(1004)
    for _ in range(10):
        hg = random_undirected(rng)
        oracle = all_pairs_distances(hg)
        for e, edge in enumerate(hg.edges):
            vs = edge.sorted_tail()
            pairwise = [
                oracle.d(vs[i], vs[j])
                for i in range(len(vs))
                for j in range(i + 1, len(vs))
            ]
            lmin = _length(hg, oracle, e, "min")
            lsum = _length(hg, oracle, e, "sum")
            lmax = _length(hg, oracle, e, "max")
            assert lmin == min(pairwise) and lsum == sum(pairwise) and lmax == max(pairwise)
            assert lmin <= lmax <= lsum or len(pairwise) == 1
            assert all(lmin <= d for d in pairwise)


def _h4():
    hg = build("undirected", 4, [([0, 1, 2], 1), ([0, 3], 1)])
    return hg, all_pairs_distances(hg)


GUARDS = {
    "edge-length-unknown-variant": (
        lambda: scaled_edge_length(*_h4(), 0, "mean"),
        errors.UnsupportedVariant,
        "unknown length variant 'mean'",
    ),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS)
def test_guards_a_library_caller_can_reach(call, error, message):
    with pytest.raises(error, match=message):
        call()
