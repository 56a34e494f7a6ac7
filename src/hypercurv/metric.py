"""Hyperpath distances, diameters, hyperedge lengths, and distance partitions.

Distances are shortest-path costs in a bipartite expansion with node set
``V + H``: entering a hyperedge costs its weight, leaving costs nothing.
A vertex-to-vertex shortest path there is exactly a minimum-cost
hyperpath, so no hyperedge sequences are ever enumerated. All arithmetic
is exact; Dijkstra priorities are Fractions with ties broken by smallest
node index.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from . import errors
from .hypergraph import UNDIRECTED, Hypergraph

LENGTH_VARIANTS = ("min", "sum", "max")


@dataclass(frozen=True)
class EdgeLength:
    """One aggregate of the pairwise distances inside a hyperedge."""

    variant: str
    value: Fraction


@dataclass(frozen=True)
class NeighborhoodPartition:
    """Out-neighborhood of ``anchor`` split by distance from ``ref``.

    ``closer``/``level``/``farther`` collect neighbors whose distance from
    the reference set is smaller than / equal to / greater than
    ``base_distance = d(ref, anchor)``. ``c1`` is the largest drop on the
    closer side, ``c2`` the smallest excess on the farther side; each is
    None when its side is empty.
    """

    ref: tuple[int, ...]
    anchor: int
    base_distance: Fraction
    closer: frozenset[int]
    level: frozenset[int]
    farther: frozenset[int]
    c1: Fraction | None
    c2: Fraction | None


@dataclass
class DistanceOracle:
    """All-pairs (quasi-)distance table with a symmetry flag."""

    dist: tuple
    symmetric: bool

    @property
    def n(self) -> int:
        return len(self.dist)

    def d(self, u: int, v: int) -> Fraction:
        n = len(self.dist)
        if 0 <= u < n and 0 <= v < n:
            return self.dist[u][v]
        raise errors.MissingDistance(f"no distance entry for pair ({u}, {v})")

    def diameter(self) -> Fraction:
        return max(max(row) for row in self.dist)

    def set_distance(self, vertices, z: int) -> Fraction:
        """Minimum distance from any member of ``vertices`` to ``z``."""
        vs = list(vertices)
        if not vs:
            raise ValueError("set distance needs a nonempty source set")
        return min(self.d(u, z) for u in vs)


def _dijkstra(hg: Hypergraph, source: int) -> list[Fraction | None]:
    n = hg.n_vertices
    m = hg.n_edges
    # node ids: 0..n-1 vertices, n..n+m-1 hyperedges
    dist: list[Fraction | None] = [None] * (n + m)
    dist[source] = Fraction(0)
    heap: list[tuple[Fraction, int]] = [(Fraction(0), source)]
    while heap:
        d, node = heapq.heappop(heap)
        if dist[node] is None or d > dist[node]:
            continue
        if node < n:
            if hg.flavor == UNDIRECTED:
                incident = hg.edges_containing(node)
            else:
                incident = hg.edges_with_tail(node)
            for e in incident:
                nd = d + hg.edges[e].weight
                t = n + e
                if dist[t] is None or nd < dist[t]:
                    dist[t] = nd
                    heapq.heappush(heap, (nd, t))
        else:
            edge = hg.edges[node - n]
            targets = edge.vertices if hg.flavor == UNDIRECTED else edge.head
            for z in targets:
                if dist[z] is None or d < dist[z]:
                    dist[z] = d
                    heapq.heappush(heap, (d, z))
    return dist[:n]


def all_pairs_distances(hg: Hypergraph) -> DistanceOracle:
    """Exact minimum hyperpath costs between all ordered vertex pairs."""
    table = []
    for u in range(hg.n_vertices):
        row = _dijkstra(hg, u)
        for v, val in enumerate(row):
            if val is None:
                raise errors.Unreachable(f"no hyperpath from {u} to {v}")
        table.append(tuple(row))
    sym = all(
        table[u][v] == table[v][u]
        for u in range(hg.n_vertices)
        for v in range(u + 1, hg.n_vertices)
    )
    return DistanceOracle(dist=tuple(table), symmetric=sym)


def diameter(hg: Hypergraph, oracle: DistanceOracle | None = None) -> Fraction:
    oracle = oracle or all_pairs_distances(hg)
    return oracle.diameter()


def edge_length(
    hg: Hypergraph, oracle: DistanceOracle, edge_index: int, variant: str = "min"
) -> EdgeLength:
    """Aggregate pairwise distance inside one hyperedge.

    Undirected edges support min/sum/max over unordered member pairs.
    Directed edges are measured tail-to-head and only the minimum is
    defined; other variants are refused rather than guessed.
    """
    if variant not in LENGTH_VARIANTS:
        raise errors.UnsupportedVariant(f"unknown length variant {variant!r}")
    edge = hg.edges[edge_index]
    if hg.flavor == UNDIRECTED:
        vs = edge.sorted_vertices()
        pairwise = [
            oracle.d(vs[i], vs[j])
            for i in range(len(vs))
            for j in range(i + 1, len(vs))
        ]
    else:
        if variant != "min":
            raise errors.UnsupportedVariant(
                "directed hyperedge length is defined as the tail-to-head minimum only"
            )
        pairwise = [oracle.d(x, y) for x in edge.sorted_tail() for y in edge.sorted_head()]
    if variant == "min":
        value = min(pairwise)
    elif variant == "max":
        value = max(pairwise)
    else:
        value = sum(pairwise, Fraction(0))
    return EdgeLength(variant=variant, value=value)


def set_distance(oracle: DistanceOracle, vertices, z: int) -> Fraction:
    return oracle.set_distance(vertices, z)


def partition_neighborhood(
    hg: Hypergraph, oracle: DistanceOracle, ref, anchor: int
) -> NeighborhoodPartition:
    """Split the out-neighborhood of ``anchor`` by distance from ``ref``.

    ``ref`` is a single vertex or a set of vertices (measured by minimum
    distance). For the undirected flavor the plain neighborhood is used.
    """
    ref_tuple = (ref,) if isinstance(ref, int) else tuple(sorted(set(ref)))
    base = oracle.set_distance(ref_tuple, anchor)
    if hg.flavor == UNDIRECTED:
        neighborhood = hg.neighbors(anchor)
    else:
        neighborhood = hg.out_neighbors(anchor)
    closer, level, farther = set(), set(), set()
    for z in neighborhood:
        dz = oracle.set_distance(ref_tuple, z)
        if dz < base:
            closer.add(z)
        elif dz == base:
            level.add(z)
        else:
            farther.add(z)
    c1 = base - min(oracle.set_distance(ref_tuple, z) for z in closer) if closer else None
    c2 = min(oracle.set_distance(ref_tuple, z) for z in farther) - base if farther else None
    return NeighborhoodPartition(
        ref=ref_tuple,
        anchor=anchor,
        base_distance=base,
        closer=frozenset(closer),
        level=frozenset(level),
        farther=frozenset(farther),
        c1=c1,
        c2=c2,
    )
