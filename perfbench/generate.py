"""Seeded hypercurv documents for the benchmark workloads.

Each generator takes a seed and returns a JSON-ready document; the same
seed always gives the same document. Vertex and hyperedge counts, the
mix of hyperedge sizes and the weights are fixed by the parameters and
only the wiring is random. The ring generators also fix the
``neighbourhood_profile``, which keeps run time from varying much with
the seed: one document's run time differs from another's by about 9%
(standard deviation over mean) for undirected documents and 4% for
oriented ones, on a 2-vCPU Xeon virtual machine.
"""

from __future__ import annotations

import random

UNDIRECTED_WEIGHTS = ("1", "1/2", "3/2", "2", "3")
SHAPES = ((1, 2), (2, 1), (2, 2), (1, 1))  # (tail, head) sizes of oriented hyperedges


def _names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


def _connected(n: int, members: list[list[int]]) -> bool:
    parent = list(range(n))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for vs in members:
        for v in vs[1:]:
            parent[root(v)] = root(vs[0])
    return len({root(v) for v in range(n)}) == 1


def neighbourhood_profile(n: int, members: list[list[int]]) -> tuple[int, int]:
    """Sum over the vertices of the neighbourhood size, and of its square.

    A document's run time follows these two closely: they fix how many
    walk-measure cells every transport problem has.
    """
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for vs in members:
        for v in vs:
            neighbours[v].update(vs)
    sizes = [len(s) - 1 for s in neighbours]
    return sum(sizes), sum(k * k for k in sizes)


def undirected_all(
    seed: int, n: int = 16, m: int = 11, span: int = 3, profile: tuple[int, int] | None = (60, 250)
) -> dict:
    """Connected undirected document with n vertices and m hyperedges of size 2..4.

    The vertices sit on a ring; hyperedge k starts at vertex k*n//m and
    takes the rest of its members from the next ``span`` ring positions,
    so every region of the ring looks alike and the diameter is set by n.
    Sizes cycle through 2..4 and weights through the mixed rational weight
    set, both in shuffled order. A hyperedge equal to an earlier one is
    redrawn, and so is a whole draw that leaves the ring disconnected or,
    when ``profile`` is given, whose ``neighbourhood_profile`` differs from
    it (the default is the most common profile of the default sizes).
    """
    rng = random.Random(seed)
    names = _names(n)
    sizes = [2 + k % 3 for k in range(m)]
    weights = [UNDIRECTED_WEIGHTS[k % len(UNDIRECTED_WEIGHTS)] for k in range(m)]
    rng.shuffle(weights)
    while True:
        rng.shuffle(sizes)
        members: list[list[int]] = []
        seen: set[tuple[int, ...]] = set()
        for k, size in enumerate(sizes):
            anchor = k * n // m
            while True:
                offsets = rng.sample(range(1, span + 1), size - 1)
                pick = tuple(sorted({anchor, *((anchor + d) % n for d in offsets)}))
                if pick not in seen:
                    break
            seen.add(pick)
            members.append(list(pick))
        if _connected(n, members) and profile in (None, neighbourhood_profile(n, members)):
            break
    return {
        "flavor": "undirected",
        "vertices": names,
        "hyperedges": [
            {"vertices": [names[v] for v in vs], "weight": w} for vs, w in zip(members, weights)
        ],
    }


def sparse_undirected(seed: int, n: int = 160, m: int = 240, hub_degree: int = 7) -> dict:
    """Large sparse undirected document with two adjacent hubs.

    A random spanning tree of 2-vertex hyperedges keeps it connected. Two
    random hub vertices share a weight-1 hyperedge, and each gets
    ``hub_degree`` more hyperedges of size 3 whose other members are
    distinct, so the hubs are the two best-connected vertices and their
    walk measures have supports of fixed size. The remaining hyperedges
    are distinct uniform random vertex sets of size 2..3. Weights cycle
    as in ``undirected_all``.
    """
    rng = random.Random(seed)
    names = _names(n)
    order = list(range(n))
    rng.shuffle(order)
    members = [sorted((order[k], rng.choice(order[:k]))) for k in range(1, n)]
    hubs = sorted(order[:2])
    spokes = rng.sample(order[2:], 4 * hub_degree)
    members.append(hubs)
    members += [
        sorted([hubs[k % 2], spokes[2 * k], spokes[2 * k + 1]]) for k in range(2 * hub_degree)
    ]
    seen = {tuple(vs) for vs in members}
    while len(members) < m:
        pick = tuple(sorted(rng.sample(range(n), rng.randint(2, 3))))
        if pick not in seen:
            seen.add(pick)
            members.append(list(pick))
    weights = [UNDIRECTED_WEIGHTS[k % len(UNDIRECTED_WEIGHTS)] for k in range(m)]
    rng.shuffle(weights)
    weights[n - 1] = "1"  # the hub edge
    return {
        "flavor": "undirected",
        "vertices": names,
        "hyperedges": [
            {"vertices": [names[v] for v in vs], "weight": w} for vs, w in zip(members, weights)
        ],
    }


def oriented_bounds(
    seed: int, n: int = 10, extra: int = 4, span: int = 4, profile: tuple[int, int] | None = (40, 172)
) -> dict:
    """Unit-weight oriented document, closed under reversal by ``symmetrize``.

    The vertices sit on a ring joined by singleton hyperedges, which keeps
    the document strongly connected; ``extra`` further hyperedges start at
    evenly spaced ring positions and take their other members from the next
    ``span`` positions. Their (tail, head) sizes cycle through (1, 2),
    (2, 1), (2, 2) and (1, 1) in shuffled order. Every unordered vertex pair
    lies in at most one listed hyperedge, so the unit-weight partition
    bounds apply; a hyperedge that would break this is redrawn. When
    ``profile`` is given, a whole draw is redrawn until the
    ``neighbourhood_profile`` of its hyperedges (tail and head together)
    equals it; the default is the most common profile of the default sizes.
    """
    rng = random.Random(seed)
    names = _names(n)
    shapes = [SHAPES[k % len(SHAPES)] for k in range(extra)]
    while True:
        edges = [([v], [(v + 1) % n]) for v in range(n)]
        covered = {frozenset((v, (v + 1) % n)) for v in range(n)}
        rng.shuffle(shapes)
        for k, (size_a, size_b) in enumerate(shapes):
            anchor = k * n // extra
            while True:
                others = [(anchor + d) % n for d in rng.sample(range(1, span + 1), size_a + size_b - 1)]
                pick = [anchor, *others]
                rng.shuffle(pick)
                tail, head = sorted(pick[:size_a]), sorted(pick[size_a:])
                pairs = {frozenset((x, y)) for x in tail for y in head}
                if not pairs & covered:
                    break
            covered |= pairs
            edges.append((tail, head))
        if profile in (None, neighbourhood_profile(n, [t + h for t, h in edges])):
            break
    return {
        "flavor": "oriented",
        "symmetrize": True,
        "vertices": names,
        "hyperedges": [
            {"tail": [names[v] for v in t], "head": [names[v] for v in h], "weight": "1"}
            for t, h in edges
        ],
    }


def top_degree_pair(doc: dict) -> tuple[str, str]:
    """The two vertices in most hyperedges (ties to the earlier name), in name order."""
    degree = {name: 0 for name in doc["vertices"]}
    for rec in doc["hyperedges"]:
        for name in rec["vertices"]:
            degree[name] += 1
    ranked = sorted(doc["vertices"], key=lambda name: (-degree[name], doc["vertices"].index(name)))
    u, v = sorted(ranked[:2], key=doc["vertices"].index)
    return u, v
