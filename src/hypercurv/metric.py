"""Hyperpath distances, diameters and hyperedge lengths.

Distances are shortest-path costs in a bipartite expansion with node set
``V + H``: a step enters a hyperedge at a tail vertex, which costs its
weight, and leaves at a head vertex, which costs nothing (an undirected
hyperedge is its own tail and head). A vertex-to-vertex shortest path
there is exactly a minimum-cost hyperpath, so no hyperedge sequences are
ever enumerated. All arithmetic is exact: the weights are scaled once to
ints by the lcm of their denominators (``Hypergraph.scaled_weights``),
Dijkstra runs on those ints with ties broken by smallest node index, and
the table keeps that common denominator. Scaling changes no comparison,
so the search and its tie order are those on Fractions. Hyperedge
lengths are read off the table's ints too.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from . import errors
from .hypergraph import UNDIRECTED, Hypergraph

LENGTH_VARIANTS = ("min", "sum", "max")


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

    def _scaled_diameter(self) -> int:
        if self._diameter is None:
            self._diameter = max(map(max, self.table))
        return self._diameter

    def diameter(self) -> Fraction:
        return Fraction(self._scaled_diameter(), self.scale)


def _dijkstra(hg: Hypergraph, weights: list[int], source: int) -> tuple[int, ...]:
    n = hg.n_vertices
    # node ids: 0..n-1 vertices, n..n+m-1 hyperedges. Every arc into a node
    # has one weight, w(h) into hyperedge h and 0 into a vertex, so a node's
    # first push is final: no node is pushed twice, and no entry goes stale.
    dist: list[int | None] = [None] * (n + hg.n_edges)
    dist[source] = 0
    heap: list[tuple[int, int]] = [(0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node < n:
            for e in hg.edges_with_tail(node):
                t = n + e
                if dist[t] is None:
                    dist[t] = d + weights[e]
                    heapq.heappush(heap, (dist[t], t))
        else:
            for z in hg.edges[node - n].head:
                if dist[z] is None:
                    dist[z] = d
                    heapq.heappush(heap, (d, z))
    return tuple(dist[:n])


def all_pairs_distances(hg: Hypergraph) -> DistanceOracle:
    """Exact minimum hyperpath costs between all ordered vertex pairs.

    ``build`` refuses a hypergraph that is not (strongly) connected, so
    every pair is joined.
    """
    weights, scale = hg.scaled_weights
    table = [_dijkstra(hg, weights, u) for u in range(hg.n_vertices)]
    sym = all(
        table[u][v] == table[v][u]
        for u in range(hg.n_vertices)
        for v in range(u + 1, hg.n_vertices)
    )
    return DistanceOracle._from_table(tuple(table), scale, sym)


def scaled_edge_length(
    hg: Hypergraph, oracle: DistanceOracle, edge_index: int, variant: str
) -> int:
    """Aggregate pairwise distance inside one hyperedge, times ``oracle.scale``.

    The int is read off ``oracle.table``. Undirected edges support
    min/sum/max over unordered member pairs. Directed edges are measured
    tail-to-head and only the minimum is defined; other variants are
    refused rather than guessed.
    """
    if variant not in LENGTH_VARIANTS:
        raise errors.UnsupportedVariant(f"unknown length variant {variant!r}")
    edge = hg.edges[edge_index]
    if hg.flavor == UNDIRECTED:
        vs = edge.sorted_tail()
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
