"""Shared fixtures and random-instance generators for the test suite."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # oracles.py lives beside the tests

from hypercurv import ParsedDocument, all_pairs_distances, build, errors
from hypercurv.hypergraph import UNDIRECTED

WEIGHTS = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3)]


@pytest.fixture(scope="session")
def h4():
    """The four-vertex worked instance: one triangle edge plus one pendant edge."""
    return build("undirected", 4, [([0, 1, 2], 1), ([0, 3], 1)])


@pytest.fixture(scope="session")
def h4_oracle(h4):
    return all_pairs_distances(h4)


def random_undirected(rng: random.Random, n_max: int = 7, extra_max: int = 2):
    """Random connected undirected hypergraph with edges of size 2..3."""
    n = rng.randint(3, n_max)
    order = list(range(n))
    rng.shuffle(order)
    covered = [order[0]]
    edges = []
    for v in order[1:]:
        partners = rng.sample(covered, min(len(covered), rng.randint(1, 2)))
        edges.append((sorted([v, *partners]), rng.choice(WEIGHTS)))
        covered.append(v)
    for _ in range(rng.randint(0, extra_max)):
        size = rng.randint(2, min(3, n))
        edges.append((sorted(rng.sample(range(n), size)), rng.choice(WEIGHTS)))
    return build("undirected", n, edges)


def random_graph_edges(rng: random.Random, n_max: int = 8, max_degree: int = 3):
    """Random connected simple graph with a degree cap, as (n, {pair: weight})."""
    n = rng.randint(4, n_max)
    order = list(range(n))
    rng.shuffle(order)
    deg = [0] * n
    edges: dict[frozenset, Fraction] = {}
    covered = [order[0]]
    for v in order[1:]:
        candidates = [u for u in covered if deg[u] < max_degree]
        u = rng.choice(candidates)
        edges[frozenset((u, v))] = rng.choice([Fraction(1), Fraction(1), Fraction(2)])
        deg[u] += 1
        deg[v] += 1
        covered.append(v)
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(range(n), 2)
        if frozenset((u, v)) not in edges and deg[u] < max_degree and deg[v] < max_degree:
            edges[frozenset((u, v))] = rng.choice([Fraction(1), Fraction(2)])
            deg[u] += 1
            deg[v] += 1
    return n, edges


def graph_as_hypergraph(n: int, edges: dict):
    return build("undirected", n, [(sorted(pair), w) for pair, w in sorted(edges.items(), key=lambda kv: sorted(kv[0]))])


def random_directed(rng: random.Random, n_max: int = 7, m_max: int = 8):
    """Random strongly connected loopless directed hypergraph.

    A singleton-edge cycle guarantees strong connectivity; extra edges
    with tail/head sizes up to 2 add structure.
    """
    n = rng.randint(3, n_max)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [([perm[i]], [perm[(i + 1) % n]], rng.choice(WEIGHTS)) for i in range(n)]
    for _ in range(rng.randint(0, max(0, m_max - n))):
        size_a = rng.randint(1, 2)
        size_b = rng.randint(1, 2)
        if size_a + size_b > n:
            continue
        pick = rng.sample(range(n), size_a + size_b)
        edges.append((pick[:size_a], pick[size_a:], rng.choice(WEIGHTS)))
    return build("directed", n, edges)


def random_oriented_unit(
    rng: random.Random, n_max: int = 6, extra_max: int = 3, simple: bool = False
):
    """Random reversal-closed unit-weight oriented hypergraph.

    ``simple=True`` keeps every unordered vertex pair inside at most one
    listed hyperedge, the regime where the per-neighbor spread weight
    stays at or below 1.
    """
    n = rng.randint(3, n_max)
    order = list(range(n))
    rng.shuffle(order)
    edges = [([order[i]], [order[i + 1]], 1) for i in range(n - 1)]
    covered = {frozenset((order[i], order[i + 1])) for i in range(n - 1)}
    for _ in range(rng.randint(0, extra_max)):
        size_a = rng.randint(1, 2)
        size_b = rng.randint(1, 2)
        if size_a + size_b > n:
            continue
        pick = rng.sample(range(n), size_a + size_b)
        tail, head = pick[:size_a], pick[size_a:]
        pairs = {frozenset((x, y)) for x in tail for y in head}
        if simple and pairs & covered:
            continue
        covered |= pairs
        edges.append((tail, head, 1))
    return build("oriented", n, edges, symmetrize=True)


def random_oriented_dense(rng: random.Random, n_max: int = 4):
    """Dense small oriented instance; the family where positive curvature is common.

    Keeps unordered pair coverage single so the unit-weight partition
    bounds apply.
    """
    while True:
        n = rng.randint(2, n_max)
        edges = []
        covered = set()
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.85:
                    edges.append(([u], [v], 1))
                    covered.add(frozenset((u, v)))
        if n >= 3 and rng.random() < 0.3:
            pick = rng.sample(range(n), 3)
            pairs = {frozenset((pick[0], z)) for z in pick[1:]}
            if not pairs & covered:
                edges.append(([pick[0]], pick[1:], 1))
        if not edges:
            continue
        try:
            return build("oriented", n, edges, symmetrize=True)
        except errors.HypercurvError:
            continue


def undirected_corpus(seed: int, count: int, **kwargs):
    rng = random.Random(seed)
    return [random_undirected(rng, **kwargs) for _ in range(count)]


def directed_corpus(seed: int, count: int, **kwargs):
    rng = random.Random(seed)
    return [random_directed(rng, **kwargs) for _ in range(count)]


def oriented_corpus(seed: int, count: int, **kwargs):
    rng = random.Random(seed)
    return [random_oriented_unit(rng, **kwargs) for _ in range(count)]


def named_document(hg):
    """``hg`` as a document with vertices x1, x2, ... and hyperedges h1, h2, ..."""
    names = [f"x{i + 1}" for i in range(hg.n_vertices)]
    return ParsedDocument(hg, names, [f"h{k + 1}" for k in range(hg.n_edges)])


def curvature_targets(hg, oracle):
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
