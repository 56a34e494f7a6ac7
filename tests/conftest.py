"""Shared fixtures and random-instance generators for the test suite.

The three flavor generators live in ``hypercurv.random_instances`` and are
re-exported here; the graph and dense oriented families are test-only.
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # oracles.py lives beside the tests

from hypercurv import ParsedDocument, all_pairs_distances, build, curvature_pairs, errors
from hypercurv.hypergraph import DIRECTED, UNDIRECTED
from hypercurv.random_instances import random_directed, random_oriented_unit, random_undirected


@pytest.fixture(scope="session")
def h4():
    """The four-vertex worked instance: one triangle edge plus one pendant edge."""
    return build("undirected", 4, [([0, 1, 2], 1), ([0, 3], 1)])


@pytest.fixture(scope="session")
def h4_oracle(h4):
    return all_pairs_distances(h4)


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
    """Every (target, variant) the CLI evaluates for the instance, and two extras.

    The pairs are ``curvature_pairs(hg)``, as ``curvature --all`` resolves
    them. The extras are kept on purpose, so the differential tests cover
    what the library accepts beyond the CLI: every length variant of each
    undirected hyperedge (a CLI run evaluates one), and the ordered pairs
    of a directed instance whose quasi-distance is symmetric.
    """
    variants = ("min", "sum", "max") if hg.flavor == UNDIRECTED else ("sum",)
    for e in range(hg.n_edges):
        for variant in variants:
            yield ("edge", e), variant
    pairs = curvature_pairs(hg)
    if hg.flavor == DIRECTED and oracle.symmetric:
        pairs = itertools.permutations(range(hg.n_vertices), 2)
    for u, v in pairs:
        yield ("pair", u, v), "sum"
