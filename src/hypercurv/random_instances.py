"""Seeded random hypergraphs of all three flavors, for tests and sweeps.

Each generator draws from the ``random.Random`` it is given, so a seed
fixes the instance stream. Every instance is valid: connected when
undirected, strongly connected when directed, reversal-closed when
oriented. Neither the package nor the CLI imports this module.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .hypergraph import build

WEIGHTS = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3)]


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
