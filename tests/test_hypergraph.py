"""Build validation, connectivity, incidence and the global counts."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercurv import build, errors, hypergraph, is_strongly_connected
from hypercurv.hypergraph import Hyperedge, Hypergraph, _fill_incidence

from conftest import (
    directed_corpus,
    oriented_corpus,
    random_undirected,
    undirected_corpus,
)


def test_h4_builds_and_is_connected(h4):
    assert h4.n_vertices == 4
    assert h4.n_edges == 2
    assert is_strongly_connected(h4)


def test_two_vertex_single_edge_is_valid():
    hg = build("undirected", 2, [([0, 1], 1)])
    assert hg.edges_with_tail(0) == hg.edges_with_head(1) == (0,)


def test_directed_hyperloop_rejected():
    with pytest.raises(errors.HyperloopInLooplessModel):
        build("directed", 2, [([0], [0], 1)])


def test_disconnected_rejected():
    with pytest.raises(errors.NotConnected):
        build("undirected", 4, [([0, 1], 1), ([2, 3], 1)])


@pytest.mark.parametrize(
    "flavor, edges, error",
    [
        ("undirected", [([0, 1, 2], 1)], errors.NotConnected),
        ("directed", [([0], [1, 2], 1), ([1, 2], [0], 1)], errors.NotStronglyConnected),
        ("oriented", [([0], [1, 2], 1), ([1, 2], [0], 1)], errors.NotStronglyConnected),
    ],
)
def test_vertex_count_past_the_hyperedges_fails_fast(monkeypatch, flavor, edges, error):
    """n above the hyperedges' vertex entries is refused before any per-vertex list is built."""

    def per_vertex_lists(hg):
        raise AssertionError(f"incidence lists built for {hg.n_vertices} vertices")

    monkeypatch.setattr(hypergraph, "_fill_incidence", per_vertex_lists)
    # the bound is the entry count: one vertex more than the hyperedges name
    entries = sum(len(part) for *parts, _w in edges for part in parts)
    for n in (10**12, entries + 1):
        with pytest.raises(error):
            build(flavor, n, edges)


def test_not_strongly_connected_rejected():
    # one-way chain: no path back
    with pytest.raises(errors.NotStronglyConnected):
        build("directed", 3, [([0], [1], 1), ([1], [2], 1)])


def test_directed_three_cycle_strongly_connected():
    hg = build("directed", 3, [([0], [1], 1), ([1], [2], 1), ([2], [0], 1)])
    assert is_strongly_connected(hg)


def test_rejects_bad_edges():
    with pytest.raises(errors.EmptyEdge):
        build("undirected", 3, [([0], 1)])
    with pytest.raises(errors.DuplicateVertex):
        build("undirected", 3, [([0, 0, 1], 1)])
    with pytest.raises(errors.NonPositiveWeight):
        build("undirected", 3, [([0, 1, 2], 0)])
    with pytest.raises(errors.VertexOutOfRange):
        build("undirected", 3, [([0, 5], 1)])
    with pytest.raises(errors.EmptyEdge):
        build("undirected", 3, [])


GUARDS = {
    "unknown-flavor": (
        lambda: build("hyper", 2, [([0, 1], 1)]),
        ValueError,
        "unknown flavor 'hyper', expected one of",
    ),
    "no-vertices": (
        lambda: build("undirected", 0, [([0, 1], 1)]),
        ValueError,
        "vertex count must be a positive integer",
    ),
    "vertex-id-not-an-integer": (
        lambda: build("undirected", 2, [([0, 1.5], 1)]),
        errors.VertexOutOfRange,
        "hyperedge 0 holds a non-integer vertex id 1.5",
    ),
    "tail-empty": (
        lambda: build("directed", 2, [([], [1], 1), ([1], [0], 1)]),
        errors.EmptyEdge,
        "hyperedge 0 has an empty tail or head",
    ),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS)
def test_guards_a_library_caller_can_reach(call, error, message):
    """``build`` refuses what no document can say: the document reader
    checks the flavor, the vertex count, the ids and the sides first."""
    with pytest.raises(error, match=message):
        call()


def test_reversal_closure_enforced():
    with pytest.raises(errors.NotClosedUnderReversal):
        build("oriented", 2, [([0], [1], 1)])
    with pytest.raises(errors.NotClosedUnderReversal):
        build("oriented", 2, [([0], [1], 1), ([1], [0], 2)])
    hg = build("oriented", 2, [([0], [1], 1), ([1], [0], 1)])
    assert hg.n_edges == 2


def test_symmetrize_adds_reversals():
    hg = build("oriented", 3, [([0], [1], 2), ([1], [2], 2), ([2], [0], 2)], symmetrize=True)
    assert hg.n_edges == 6
    assert hg.edges[3].tail == frozenset({1})
    assert hg.edges[3].head == frozenset({0})
    assert hg.edges[3].weight == 2


def test_h4_incidence(h4):
    assert h4.edges_with_tail(0) == h4.edges_with_head(0) == (0, 1)
    assert h4.edges_with_tail(1) == (0,)
    assert h4.edges_with_tail(3) == (1,)
    assert h4.max_degree() == 4
    assert h4.max_head_size() == 3


def test_directed_incidence():
    hg = build("directed", 4, [([0, 1], [2], 1), ([2], [3], 1), ([3], [0, 1], 1)])
    assert hg.edges_with_tail(0) == hg.edges_with_tail(1) == (0,)
    assert hg.edges_with_head(2) == (0,)
    assert hg.edges_with_head(0) == (2,)
    assert hg.max_degree() == 2
    assert hg.max_head_size() == 2


def test_multi_edges_accumulate():
    hg = build("undirected", 2, [([0, 1], 1), ([0, 1], Fraction(1, 2))])
    assert hg.edges_with_tail(0) == hg.edges_with_head(1) == (0, 1)
    assert hg.scaled_weights == ((2, 1), 2)
    assert hg.max_degree() == 4
    assert hg.n_edges == 2


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_undirected_hyperedge_is_its_own_tail_and_head(seed):
    hg = random_undirected(random.Random(seed))
    for e in hg.edges:
        assert e.tail is e.head and len(e.tail) >= 2
    for v in range(hg.n_vertices):
        members = tuple(k for k, e in enumerate(hg.edges) if v in e.tail)
        assert hg.edges_with_tail(v) == hg.edges_with_head(v) == members


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_undirected_positive_degrees(seed):
    hg = random_undirected(random.Random(seed))
    for v in range(hg.n_vertices):
        assert hg.edges_with_tail(v)


CORPORA = {
    "undirected": lambda: undirected_corpus(3401, 40, n_max=9, extra_max=4),
    "directed": lambda: directed_corpus(3402, 40),
    "oriented": lambda: oriented_corpus(3403, 40),
}


@pytest.mark.parametrize("flavor", sorted(CORPORA))
def test_incidence_and_global_counts_match_the_raw_edge_lists(flavor):
    """Each incidence list, ``max_degree`` and ``max_head_size`` against
    scans of the raw tail and head sets; an undirected hyperedge counts
    once as a tail and once as a head."""
    for hg in CORPORA[flavor]():
        vertices = range(hg.n_vertices)
        tails = [tuple(k for k, e in enumerate(hg.edges) if v in e.tail) for v in vertices]
        heads = [tuple(k for k, e in enumerate(hg.edges) if v in e.head) for v in vertices]
        assert [hg.edges_with_tail(v) for v in vertices] == tails
        assert [hg.edges_with_head(v) for v in vertices] == heads
        if flavor == "undirected":
            assert tails == heads
        assert hg.max_degree() == max(len(t) + len(h) for t, h in zip(tails, heads))
        assert hg.max_head_size() == max(len(e.head) for e in hg.edges)


def _unchecked_hypergraph(rng: random.Random, flavor: str) -> Hypergraph:
    """A random hypergraph of the flavor, built without the connectivity check."""
    n = rng.randint(2, 7)
    edges = []
    for _ in range(rng.randint(1, 5)):
        members = rng.sample(range(n), rng.randint(2, min(n, 4)))
        if flavor == "undirected":
            edges.append(Hyperedge(frozenset(members), frozenset(members), Fraction(1)))
        else:
            cut = rng.randint(1, len(members) - 1)
            edges.append(Hyperedge(frozenset(members[:cut]), frozenset(members[cut:]), Fraction(1)))
    if flavor == "oriented":
        edges += [e.reversed() for e in edges]
    hg = Hypergraph(flavor, n, tuple(edges))
    _fill_incidence(hg)
    return hg


def _weakly_connected(hg: Hypergraph) -> bool:
    """Union-find over the members (tail and head) of every hyperedge."""
    parent = list(range(hg.n_vertices))

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for e in hg.edges:
        first, *rest = e.tail | e.head
        for z in rest:
            parent[find(z)] = find(first)
    return len({find(v) for v in range(hg.n_vertices)}) == 1


def _strongly_connected(hg: Hypergraph) -> bool:
    """Closure of one step: tail to head, or member to member if undirected."""
    n = hg.n_vertices
    reach = [{v} for v in range(n)]
    for e in hg.edges:
        if hg.flavor == "undirected":
            for x in e.tail:
                reach[x] |= e.tail
        else:
            for x in e.tail:
                reach[x] |= e.head
    for k in range(n):
        for v in range(n):
            if k in reach[v]:
                reach[v] |= reach[k]
    return all(len(r) == n for r in reach)


@pytest.mark.parametrize("flavor", ["undirected", "directed", "oriented"])
def test_connectivity_matches_references(flavor):
    rng = random.Random(f"connectivity-{flavor}")
    seen = set()
    for _ in range(300):
        hg = _unchecked_hypergraph(rng, flavor)
        weak, strong = _weakly_connected(hg), _strongly_connected(hg)
        assert is_strongly_connected(hg) == strong
        seen.add((weak, strong))
    # the corpus reaches every combination the flavor allows
    assert seen >= {(False, False), (True, True)}
    if flavor == "directed":
        assert (True, False) in seen
