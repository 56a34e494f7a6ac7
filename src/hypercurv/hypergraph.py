"""Hypergraph data model: three flavors, one hyperedge class, validation, incidence.

Flavors
-------
* ``undirected`` -- hyperedges are vertex sets of size >= 2; the hypergraph
  must be connected.
* ``directed`` -- hyperedges are ordered pairs (tail, head) of disjoint
  nonempty vertex sets; the hypergraph must be strongly connected.
* ``oriented`` -- directed, and additionally closed under edge reversal
  with matching weights, which makes the shortest-path quasi-distance
  symmetric.

Incidence
---------
Every hyperedge has a ``tail`` and a ``head``; an undirected hyperedge is
its own tail and head, both its vertex set. One step from a vertex v enters
a hyperedge at a tail containing v and leaves at a head vertex other than
v. That is the whole step rule, the same for every flavor: the directed
flavors never meet v in the head (tail and head are disjoint), and the
undirected step reaches the co-members of v. The tail and head incidence
lists, reachability, distances and walks all follow it without looking at
the flavor.

A :class:`Hypergraph` is immutable after :func:`build`; every query is pure
and safe to call concurrently. Vertices are dense integer ids ``0..n-1``.
Multi-edges (same incidence, possibly different weights) are allowed.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from functools import cached_property
from operator import attrgetter
from fractions import Fraction

from . import errors
from .errors import excerpt
from .rational import as_fraction

UNDIRECTED = "undirected"
DIRECTED = "directed"
ORIENTED = "oriented"
FLAVORS = (UNDIRECTED, DIRECTED, ORIENTED)


class Hyperedge:
    """A hyperedge: a tail, a head and a positive rational weight.

    An undirected hyperedge is its own tail and head, both its vertex set
    of size >= 2. A directed one has disjoint nonempty tail and head.
    """

    __slots__ = ("tail", "head", "weight")

    def __init__(self, tail: frozenset[int], head: frozenset[int], weight: Fraction):
        self.tail = tail
        self.head = head
        self.weight = weight

    def sorted_tail(self) -> tuple[int, ...]:
        return tuple(sorted(self.tail))

    def sorted_head(self) -> tuple[int, ...]:
        return tuple(sorted(self.head))

    def reversed(self) -> "Hyperedge":
        return Hyperedge(self.head, self.tail, self.weight)


def _as_vertex_part(raw, n: int, what: str) -> frozenset[int]:
    seq = list(raw)
    part = frozenset(seq)
    if len(part) != len(seq):
        raise errors.DuplicateVertex(f"{what} repeats a vertex: {excerpt(sorted(seq))}")
    for v in part:
        if not isinstance(v, int) or isinstance(v, bool):
            raise errors.VertexOutOfRange(f"{what} holds a non-integer vertex id {excerpt(v)}")
        if v < 0 or v >= n:
            why = f"references vertex {excerpt(v)}, valid range is 0..{n - 1}"
            raise errors.VertexOutOfRange(f"{what} {why}")
    return part


class Hypergraph:
    """Validated, immutable-by-convention hypergraph of one flavor.

    No ``__slots__``: ``cached_property`` stores into the instance dict.
    """

    def __init__(self, flavor: str, n_vertices: int, edges: tuple):
        self.flavor = flavor
        self.n_vertices = n_vertices
        self.edges = edges
        # incidence caches, filled once at build time
        self._tail_edges_at = ()  # edge ids with v in tail
        self._head_edges_at = ()  # edge ids with v in head

    # -- incidence ---------------------------------------------------------

    def edges_with_tail(self, v: int) -> tuple[int, ...]:
        return self._tail_edges_at[v]

    def edges_with_head(self, v: int) -> tuple[int, ...]:
        return self._head_edges_at[v]

    # -- global quantities -----------------------------------------------

    # Each global quantity is computed on first use and kept, never at build
    # time: ``validate`` builds a hypergraph and reads none of them.

    @cached_property
    def _weight_range(self) -> tuple[Fraction, Fraction]:
        weights = [e.weight for e in self.edges]
        return min(weights), max(weights)

    @cached_property
    def scaled_weights(self) -> tuple[tuple[int, ...], int]:
        """Edge weights as ints over their common denominator: ``(weights, scale)``.

        ``edges[k].weight == weights[k] / scale``, with ``scale`` the lcm of
        the weight denominators.
        """
        ratios = [e.weight.as_integer_ratio() for e in self.edges]
        scale = math.lcm(*{den for _num, den in ratios})
        return tuple(num * (scale // den) for num, den in ratios), scale

    def max_weight(self) -> Fraction:
        return self._weight_range[1]

    @cached_property
    def _max_head_size(self) -> int:
        return max(len(e.head) for e in self.edges)

    @cached_property
    def _max_degree(self) -> int:
        # an undirected hyperedge counts twice, once as tail and once as head
        return max(len(t) + len(h) for t, h in zip(self._tail_edges_at, self._head_edges_at))

    def max_head_size(self) -> int:
        return self._max_head_size

    def max_degree(self) -> int:
        return self._max_degree

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
    entries = 0
    if flavor == UNDIRECTED:
        for k, spec in enumerate(edges):
            vertices, weight = spec
            part = _as_vertex_part(vertices, n, f"hyperedge {k}")
            entries += len(part)
            if len(part) < 2:
                raise errors.EmptyEdge(f"hyperedge {k} needs at least 2 distinct vertices")
            w = as_fraction(weight)
            if w <= 0:
                raise errors.NonPositiveWeight(f"hyperedge {k} has weight {w}")
            parsed.append(Hyperedge(part, part, w))
    else:
        for k, spec in enumerate(edges):
            tail, head, weight = spec
            a = _as_vertex_part(tail, n, f"hyperedge {k} tail")
            b = _as_vertex_part(head, n, f"hyperedge {k} head")
            entries += len(a) + len(b)
            if not a or not b:
                raise errors.EmptyEdge(f"hyperedge {k} has an empty tail or head")
            if a & b:
                raise errors.HyperloopInLooplessModel(
                    f"hyperedge {k} has overlapping tail and head: {excerpt(sorted(a & b))}"
                )
            w = as_fraction(weight)
            if w <= 0:
                raise errors.NonPositiveWeight(f"hyperedge {k} has weight {w}")
            parsed.append(Hyperedge(a, b, w))
        if symmetrize:
            parsed.extend(e.reversed() for e in list(parsed))

    if not parsed:
        raise errors.EmptyEdge("a hypergraph needs at least one hyperedge")

    if flavor == ORIENTED:
        _check_reversal_closure(parsed)
    check_vertex_count(flavor, n, entries)

    hg = Hypergraph(flavor=flavor, n_vertices=n, edges=tuple(parsed))
    _fill_incidence(hg)
    # an undirected step goes both ways, so strong connectivity is connectivity
    if not is_strongly_connected(hg):
        raise _disconnected(flavor)
    return hg


def _fill_incidence(hg: Hypergraph) -> None:
    tails = [[] for _ in range(hg.n_vertices)]
    heads = [[] for _ in range(hg.n_vertices)]
    for k, e in enumerate(hg.edges):
        for v in e.tail:
            tails[v].append(k)
        for v in e.head:
            heads[v].append(k)
    hg._tail_edges_at = tuple(map(tuple, tails))
    hg._head_edges_at = tuple(map(tuple, heads))


def _check_reversal_closure(edges: list[Hyperedge]) -> None:
    signature = Counter((e.tail, e.head, e.weight) for e in edges)
    for (a, b, w), count in signature.items():
        partner = signature.get((b, a, w), 0)
        if partner != count:
            raise errors.NotClosedUnderReversal(
                f"edge ({excerpt(sorted(a))} -> {excerpt(sorted(b))}, w={w}) "
                f"occurs {count}x but its reversal occurs {partner}x"
            )


def _disconnected(flavor: str) -> errors.HypercurvError:
    if flavor == UNDIRECTED:
        return errors.NotConnected("every vertex pair must be joined by a hyperpath")
    return errors.NotStronglyConnected(
        "every ordered vertex pair must be joined by a directed hyperpath"
    )


def check_vertex_count(flavor: str, n: int, entries: int) -> None:
    """Refuse n vertices that ``entries`` hyperedge memberships cannot all cover.

    A connected hypergraph puts every vertex in some hyperedge, so n above
    the total count of vertex entries across the hyperedges fails the
    flavor's connectivity check. Run before anything of size n is built.
    """
    if n > entries:
        raise _disconnected(flavor)


# -- connectivity ---------------------------------------------------------


def _reachable(hg: Hypergraph, start: int, incidence, ends) -> set[int]:
    """Vertices reached from ``start``, stepping from v to ``ends(h)`` for h in ``incidence[v]``.

    Each hyperedge is crossed once, so a search costs the total size of the
    hyperedges, not its square.
    """
    seen = {start}
    queue = deque([start])
    used_edges: set[int] = set()
    while queue:
        for e in incidence[queue.popleft()]:
            if e in used_edges:
                continue
            used_edges.add(e)
            for z in ends(hg.edges[e]):
                if z not in seen:
                    seen.add(z)
                    queue.append(z)
    return seen


def is_strongly_connected(hg: Hypergraph) -> bool:
    """True iff every ordered pair is joined by a directed hyperpath."""
    forward = _reachable(hg, 0, hg._tail_edges_at, attrgetter("head"))
    backward = _reachable(hg, 0, hg._head_edges_at, attrgetter("tail"))
    return len(forward) == len(backward) == hg.n_vertices
