"""Hypergraph data model: three flavors, validation, degrees, neighborhoods.

Flavors
-------
* ``undirected`` -- hyperedges are vertex sets of size >= 2; the hypergraph
  must be connected.
* ``directed`` -- hyperedges are ordered pairs (tail, head) of disjoint
  nonempty vertex sets; the hypergraph must be strongly connected.
* ``oriented`` -- directed, and additionally closed under edge reversal
  with matching weights, which makes the shortest-path quasi-distance
  symmetric.

A :class:`Hypergraph` is immutable after :func:`build`; every query is pure
and safe to call concurrently. Vertices are dense integer ids ``0..n-1``.
Multi-edges (same incidence, possibly different weights) are allowed.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from . import errors
from .rational import as_fraction

UNDIRECTED = "undirected"
DIRECTED = "directed"
ORIENTED = "oriented"
FLAVORS = (UNDIRECTED, DIRECTED, ORIENTED)


@dataclass(frozen=True)
class UndirectedEdge:
    """A vertex set of size >= 2 with a positive rational weight."""

    vertices: frozenset[int]
    weight: Fraction

    def sorted_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertices))

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class DirectedEdge:
    """An ordered pair (tail, head) of disjoint nonempty vertex sets."""

    tail: frozenset[int]
    head: frozenset[int]
    weight: Fraction

    def sorted_tail(self) -> tuple[int, ...]:
        return tuple(sorted(self.tail))

    def sorted_head(self) -> tuple[int, ...]:
        return tuple(sorted(self.head))

    def reversed(self) -> "DirectedEdge":
        return DirectedEdge(tail=self.head, head=self.tail, weight=self.weight)


def _as_vertex_part(raw, n: int, what: str) -> frozenset[int]:
    seq = list(raw)
    part = frozenset(seq)
    if len(part) != len(seq):
        raise errors.DuplicateVertex(f"{what} repeats a vertex: {sorted(seq)}")
    for v in part:
        if not isinstance(v, int) or isinstance(v, bool):
            raise errors.VertexOutOfRange(f"{what} holds a non-integer vertex id {v!r}")
        if v < 0 or v >= n:
            raise errors.VertexOutOfRange(f"{what} references vertex {v}, valid range is 0..{n - 1}")
    return part


@dataclass
class Hypergraph:
    """Validated, immutable-by-convention hypergraph of one flavor."""

    flavor: str
    n_vertices: int
    edges: tuple

    # incidence caches, filled once at build time
    _edges_at: tuple = field(repr=False, default=())          # undirected: edge ids per vertex
    _tail_edges_at: tuple = field(repr=False, default=())     # directed: edge ids with v in tail
    _head_edges_at: tuple = field(repr=False, default=())     # directed: edge ids with v in head

    # -- incidence ---------------------------------------------------------

    def edges_containing(self, v: int) -> tuple[int, ...]:
        return self._edges_at[v]

    def edges_with_tail(self, v: int) -> tuple[int, ...]:
        return self._tail_edges_at[v]

    def edges_with_head(self, v: int) -> tuple[int, ...]:
        return self._head_edges_at[v]

    # -- neighborhoods -------------------------------------------------------

    def neighbors(self, v: int) -> frozenset[int]:
        """Vertices adjacent to v.

        Undirected: co-members of any hyperedge containing v. Oriented:
        successors through any tail occurrence (equal to the predecessor
        set by reversal closure).
        """
        if self.flavor == UNDIRECTED:
            out: set[int] = set()
            for e in self._edges_at[v]:
                out.update(self.edges[e].vertices)
            out.discard(v)
            return frozenset(out)
        return self.out_neighbors(v)

    def in_neighbors(self, v: int) -> frozenset[int]:
        """Vertices z lying in the tail of some edge whose head contains v."""
        out: set[int] = set()
        for e in self._head_edges_at[v]:
            out.update(self.edges[e].tail)
        return frozenset(out)

    def out_neighbors(self, v: int) -> frozenset[int]:
        """Vertices z lying in the head of some edge whose tail contains v."""
        out: set[int] = set()
        for e in self._tail_edges_at[v]:
            out.update(self.edges[e].head)
        return frozenset(out)

    def tail_in_neighborhood(self, edge_index: int) -> frozenset[int]:
        """Vertices that reach some tail vertex of the edge in one hop."""
        h = self.edges[edge_index]
        out: set[int] = set()
        for x in h.tail:
            out.update(self.in_neighbors(x))
        return frozenset(out)

    def head_out_neighborhood(self, edge_index: int) -> frozenset[int]:
        """Vertices reachable from some head vertex of the edge in one hop."""
        h = self.edges[edge_index]
        out: set[int] = set()
        for y in h.head:
            out.update(self.out_neighbors(y))
        return frozenset(out)

    # -- degrees ----------------------------------------------------------

    def degree(self, v: int) -> Fraction:
        """Undirected weighted degree: total weight of edges containing v."""
        return sum((self.edges[e].weight for e in self._edges_at[v]), Fraction(0))

    def in_weight(self, v: int) -> Fraction:
        """Total weight of edges having v in their head."""
        return sum((self.edges[e].weight for e in self._head_edges_at[v]), Fraction(0))

    def out_weight(self, v: int) -> Fraction:
        """Total weight of edges having v in their tail."""
        return sum((self.edges[e].weight for e in self._tail_edges_at[v]), Fraction(0))

    def deg_in(self, v: int) -> int:
        """Count of edges having v in their head."""
        return len(self._head_edges_at[v])

    def deg_out(self, v: int) -> int:
        """Count of edges having v in their tail."""
        return len(self._tail_edges_at[v])

    def deg(self, v: int) -> int:
        return self.deg_in(v) + self.deg_out(v)

    # -- global quantities -----------------------------------------------

    @cached_property
    def _weight_range(self) -> tuple[Fraction, Fraction]:
        weights = [e.weight for e in self.edges]
        return min(weights), max(weights)

    def max_weight(self) -> Fraction:
        return self._weight_range[1]

    def min_weight(self) -> Fraction:
        return self._weight_range[0]

    def max_head_size(self) -> int:
        return max(len(e.head) for e in self.edges)

    def max_tail_size(self) -> int:
        return max(len(e.tail) for e in self.edges)

    def max_degree(self) -> int:
        return max(self.deg(v) for v in range(self.n_vertices))

    def is_unit_weight(self) -> bool:
        return self._weight_range == (1, 1)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


# -- construction ------------------------------------------------------------


def build(flavor: str, n: int, edges, symmetrize: bool = False) -> Hypergraph:
    """Validate and freeze a hypergraph.

    ``edges`` holds ``(vertices, weight)`` pairs for the undirected flavor
    and ``(tail, head, weight)`` triples otherwise. ``symmetrize=True``
    (oriented only) appends the reversal of every listed edge instead of
    requiring the list to be reversal-closed already; explicit lists are
    validated, never repaired.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}, expected one of {FLAVORS}")
    if not isinstance(n, int) or n <= 0:
        raise ValueError("vertex count must be a positive integer")
    if symmetrize and flavor != ORIENTED:
        raise errors.NotOriented("symmetrize applies to the oriented flavor only")

    parsed = []
    if flavor == UNDIRECTED:
        for k, spec in enumerate(edges):
            vertices, weight = spec
            part = _as_vertex_part(vertices, n, f"hyperedge {k}")
            if len(part) < 2:
                raise errors.EmptyEdge(f"hyperedge {k} needs at least 2 distinct vertices")
            w = as_fraction(weight)
            if w <= 0:
                raise errors.NonPositiveWeight(f"hyperedge {k} has weight {w}")
            parsed.append(UndirectedEdge(vertices=part, weight=w))
    else:
        for k, spec in enumerate(edges):
            tail, head, weight = spec
            a = _as_vertex_part(tail, n, f"hyperedge {k} tail")
            b = _as_vertex_part(head, n, f"hyperedge {k} head")
            if not a or not b:
                raise errors.EmptyEdge(f"hyperedge {k} has an empty tail or head")
            if a & b:
                raise errors.HyperloopInLooplessModel(
                    f"hyperedge {k} has overlapping tail and head: {sorted(a & b)}"
                )
            w = as_fraction(weight)
            if w <= 0:
                raise errors.NonPositiveWeight(f"hyperedge {k} has weight {w}")
            parsed.append(DirectedEdge(tail=a, head=b, weight=w))
        if symmetrize:
            parsed.extend(e.reversed() for e in list(parsed))

    if not parsed:
        raise errors.EmptyEdge("a hypergraph needs at least one hyperedge")

    if flavor == ORIENTED:
        _check_reversal_closure(parsed)

    hg = Hypergraph(flavor=flavor, n_vertices=n, edges=tuple(parsed))
    _fill_incidence(hg)
    _check_connectivity(hg)
    return hg


def _fill_incidence(hg: Hypergraph) -> None:
    n = hg.n_vertices
    if hg.flavor == UNDIRECTED:
        at = [[] for _ in range(n)]
        for k, e in enumerate(hg.edges):
            for v in e.vertices:
                at[v].append(k)
        hg._edges_at = tuple(tuple(x) for x in at)
    else:
        tails = [[] for _ in range(n)]
        heads = [[] for _ in range(n)]
        for k, e in enumerate(hg.edges):
            for v in e.tail:
                tails[v].append(k)
            for v in e.head:
                heads[v].append(k)
        hg._tail_edges_at = tuple(tuple(x) for x in tails)
        hg._head_edges_at = tuple(tuple(x) for x in heads)


def _check_reversal_closure(edges: list[DirectedEdge]) -> None:
    signature = Counter((e.tail, e.head, e.weight) for e in edges)
    for (a, b, w), count in signature.items():
        partner = signature.get((b, a, w), 0)
        if partner != count:
            raise errors.NotClosedUnderReversal(
                f"edge ({sorted(a)} -> {sorted(b)}, w={w}) occurs {count}x "
                f"but its reversal occurs {partner}x"
            )


def _check_connectivity(hg: Hypergraph) -> None:
    if hg.flavor == UNDIRECTED:
        if not is_connected(hg):
            raise errors.NotConnected("every vertex pair must be joined by a hyperpath")
    else:
        if not is_strongly_connected(hg):
            raise errors.NotStronglyConnected(
                "every ordered vertex pair must be joined by a directed hyperpath"
            )


# -- connectivity ---------------------------------------------------------


def _reachable(hg: Hypergraph, start: int, reverse: bool = False) -> set[int]:
    seen = {start}
    queue = deque([start])
    used_edges: set[int] = set()
    while queue:
        v = queue.popleft()
        if hg.flavor == UNDIRECTED:
            incident = hg.edges_containing(v)
        elif reverse:
            incident = hg.edges_with_head(v)
        else:
            incident = hg.edges_with_tail(v)
        for e in incident:
            if e in used_edges:
                continue
            used_edges.add(e)
            edge = hg.edges[e]
            if hg.flavor == UNDIRECTED:
                targets = edge.vertices
            else:
                targets = edge.tail if reverse else edge.head
            for z in targets:
                if z not in seen:
                    seen.add(z)
                    queue.append(z)
    return seen


def is_connected(hg: Hypergraph) -> bool:
    """True iff every vertex pair is joined by a hyperpath (undirected sense)."""
    if hg.flavor != UNDIRECTED:
        # underlying undirected structure: treat tail+head as one vertex set
        seen = {0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for k, e in enumerate(hg.edges):
                members = e.tail | e.head
                if v in members:
                    for z in members:
                        if z not in seen:
                            seen.add(z)
                            queue.append(z)
        return len(seen) == hg.n_vertices
    return len(_reachable(hg, 0)) == hg.n_vertices


def is_strongly_connected(hg: Hypergraph) -> bool:
    """True iff every ordered pair is joined by a directed hyperpath."""
    if hg.flavor == UNDIRECTED:
        return is_connected(hg)
    forward = _reachable(hg, 0, reverse=False)
    backward = _reachable(hg, 0, reverse=True)
    return len(forward) == hg.n_vertices and len(backward) == hg.n_vertices
