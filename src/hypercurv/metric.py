"""Hyperpath distances, diameters, hyperedge lengths, and distance partitions.

Distances are shortest-path costs in a bipartite expansion with node set
``V + H``: a step enters a hyperedge at a tail vertex, which costs its
weight, and leaves at a head vertex, which costs nothing (an undirected
hyperedge is its own tail and head). A vertex-to-vertex shortest path
there is exactly a minimum-cost hyperpath, so no hyperedge sequences are
ever enumerated. All arithmetic is exact: the weights are scaled once to
ints by the lcm of their denominators (``Hypergraph.scaled_weights``),
Dijkstra runs on those ints with ties broken by smallest node index, and
the table keeps that common denominator. Scaling changes no comparison,
so the search and its tie order are those on Fractions. Set distances,
hyperedge lengths and neighborhood partitions (of the out-neighborhood,
reached by the same step) are computed on the table's ints too; each
value handed to a caller becomes one Fraction at the end.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple
from fractions import Fraction

from . import errors
from .hypergraph import UNDIRECTED, Hypergraph

LENGTH_VARIANTS = ("min", "sum", "max")


class EdgeLength(namedtuple("EdgeLength", "variant value")):
    """One aggregate (a Fraction) of the pairwise distances inside a hyperedge."""

    __slots__ = ()


class NeighborhoodPartition(
    namedtuple("NeighborhoodPartition", "ref anchor base_distance closer level farther c1 c2")
):
    """Out-neighborhood of ``anchor`` split by distance from ``ref``.

    ``ref`` is a tuple of vertices. ``closer``/``level``/``farther`` are
    frozensets of the neighbors whose distance from the reference set is
    smaller than / equal to / greater than ``base_distance = d(ref,
    anchor)``. ``c1`` is the largest drop on the closer side, ``c2`` the
    smallest excess on the farther side; each is None when its side is
    empty.
    """

    __slots__ = ()


class DistanceOracle:
    """All-pairs (quasi-)distance table with a symmetry flag.

    ``dist`` is a square table of rationals. It is kept as ``table``, ints
    over the common denominator ``scale``, so ``d(u, v)`` is
    ``Fraction(table[u][v], scale)``; the transport layer reads the int
    table directly.
    """

    def __init__(self, dist, symmetric: bool):
        ratios = [[x.as_integer_ratio() for x in row] for row in dist]
        scale = math.lcm(*{den for row in ratios for _num, den in row})
        table = tuple(tuple(num * (scale // den) for num, den in row) for row in ratios)
        self._init(table, scale, symmetric)

    @classmethod
    def _from_table(cls, table: tuple, scale: int, symmetric: bool) -> "DistanceOracle":
        oracle = cls.__new__(cls)
        oracle._init(table, scale, symmetric)
        return oracle

    def _init(self, table: tuple, scale: int, symmetric: bool) -> None:
        self.table = table
        self.scale = scale
        self.symmetric = symmetric
        self.n = len(table)
        self._diameter = None

    def _scaled(self, u: int, v: int) -> int:
        if 0 <= u < self.n and 0 <= v < self.n:
            return self.table[u][v]
        raise errors.MissingDistance(f"no distance entry for pair ({u}, {v})")

    def d(self, u: int, v: int) -> Fraction:
        return Fraction(self._scaled(u, v), self.scale)

    def diameter(self) -> Fraction:
        if self._diameter is None:
            self._diameter = Fraction(max(map(max, self.table)), self.scale)
        return self._diameter

    def set_distance(self, vertices, z: int) -> Fraction:
        """Minimum distance from any member of ``vertices`` to ``z``."""
        return Fraction(self._set_scaled(vertices, z), self.scale)

    def _set_scaled(self, vertices, z: int) -> int:
        vs = list(vertices)
        if not vs:
            raise ValueError("set distance needs a nonempty source set")
        return min(self._scaled(u, z) for u in vs)


def _dijkstra(hg: Hypergraph, weights: list[int], source: int) -> list[int | None]:
    n = hg.n_vertices
    # node ids: 0..n-1 vertices, n..n+m-1 hyperedges
    dist: list[int | None] = [None] * (n + hg.n_edges)
    dist[source] = 0
    heap: list[tuple[int, int]] = [(0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if dist[node] is None or d > dist[node]:
            continue
        if node < n:
            for e in hg.edges_with_tail(node):
                nd = d + weights[e]
                t = n + e
                if dist[t] is None or nd < dist[t]:
                    dist[t] = nd
                    heapq.heappush(heap, (nd, t))
        else:
            for z in hg.edges[node - n].head:
                if dist[z] is None or d < dist[z]:
                    dist[z] = d
                    heapq.heappush(heap, (d, z))
    return dist[:n]


def all_pairs_distances(hg: Hypergraph) -> DistanceOracle:
    """Exact minimum hyperpath costs between all ordered vertex pairs."""
    weights, scale = hg.scaled_weights
    table = []
    for u in range(hg.n_vertices):
        row = _dijkstra(hg, weights, u)
        for v, val in enumerate(row):
            if val is None:
                raise errors.Unreachable(f"no hyperpath from {u} to {v}")
        table.append(tuple(row))
    sym = all(
        table[u][v] == table[v][u]
        for u in range(hg.n_vertices)
        for v in range(u + 1, hg.n_vertices)
    )
    return DistanceOracle._from_table(tuple(table), scale, sym)


def edge_length(
    hg: Hypergraph, oracle: DistanceOracle, edge_index: int, variant: str = "min"
) -> EdgeLength:
    """Aggregate pairwise distance inside one hyperedge.

    Undirected edges support min/sum/max over unordered member pairs.
    Directed edges are measured tail-to-head and only the minimum is
    defined; other variants are refused rather than guessed.
    """
    value = scaled_edge_length(hg, oracle, edge_index, variant)
    return EdgeLength(variant=variant, value=Fraction(value, oracle.scale))


def scaled_edge_length(
    hg: Hypergraph, oracle: DistanceOracle, edge_index: int, variant: str
) -> int:
    """:func:`edge_length` times ``oracle.scale``, an int read off ``oracle.table``."""
    if variant not in LENGTH_VARIANTS:
        raise errors.UnsupportedVariant(f"unknown length variant {variant!r}")
    edge = hg.edges[edge_index]
    if hg.flavor == UNDIRECTED:
        vs = edge.sorted_vertices()
        pairwise = [
            oracle._scaled(vs[i], vs[j])
            for i in range(len(vs))
            for j in range(i + 1, len(vs))
        ]
    else:
        if variant != "min":
            raise errors.UnsupportedVariant(
                "directed hyperedge length is defined as the tail-to-head minimum only"
            )
        pairwise = [oracle._scaled(x, y) for x in edge.tail for y in edge.head]
    if variant == "min":
        return min(pairwise)
    if variant == "max":
        return max(pairwise)
    return sum(pairwise)


def partition_neighborhood(
    hg: Hypergraph, oracle: DistanceOracle, ref, anchor: int, neighbors=None
) -> NeighborhoodPartition:
    """Split the out-neighborhood of ``anchor`` by distance from ``ref``.

    ``ref`` is a single vertex or a set of vertices (measured by minimum
    distance). ``neighbors``, when given, is ``hg.neighbors(anchor)`` known
    beforehand, in any iterable form. The distances are compared as ints of
    ``oracle.table``; the base distance and the gaps become Fractions at
    the end.
    """
    ref_tuple = (ref,) if isinstance(ref, int) else tuple(sorted(set(ref)))
    base = oracle._set_scaled(ref_tuple, anchor)
    rows = [oracle.table[u] for u in ref_tuple]
    closer, level, farther = {}, [], {}
    for z in hg.neighbors(anchor) if neighbors is None else neighbors:
        dz = min(row[z] for row in rows)
        if dz < base:
            closer[z] = dz
        elif dz == base:
            level.append(z)
        else:
            farther[z] = dz
    scale = oracle.scale
    return NeighborhoodPartition(
        ref=ref_tuple,
        anchor=anchor,
        base_distance=Fraction(base, scale),
        closer=frozenset(closer),
        level=frozenset(level),
        farther=frozenset(farther),
        c1=Fraction(base - min(closer.values()), scale) if closer else None,
        c2=Fraction(min(farther.values()) - base, scale) if farther else None,
    )
