"""Lazy random-walk probability measures on hypergraph vertex sets.

Every constructor returns a sparse measure with exact rational masses.
The laziness parameter ``alpha`` keeps that fraction of the mass at the
base vertex and spreads the rest over the declared neighborhood,
proportionally to hyperedge weights and inversely to hyperedge sizes.
Masses are affine functions of alpha, which the curvature limit relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import errors
from .hypergraph import ORIENTED, UNDIRECTED, Hypergraph
from .rational import as_alpha


@dataclass(frozen=True)
class ProbabilityMeasure:
    """Sparse nonnegative mass map over vertex ids.

    Zero-mass entries are never stored, so ``support()`` is exactly the
    set of vertices carrying mass.
    """

    mass: dict[int, Fraction]
    alpha: Fraction

    def __getitem__(self, v: int) -> Fraction:
        return self.mass.get(v, Fraction(0))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.mass))

    def total(self) -> Fraction:
        return sum(self.mass.values(), Fraction(0))


def _finish(mass: dict[int, Fraction], alpha: Fraction) -> ProbabilityMeasure:
    return ProbabilityMeasure(mass={v: m for v, m in mass.items() if m != 0}, alpha=alpha)


def measure_undirected(hg: Hypergraph, x: int, alpha) -> ProbabilityMeasure:
    """Walk measure of a vertex in an undirected hypergraph.

    Keeps ``alpha`` at x; each co-member z of a shared hyperedge h'
    receives ``(1-alpha) * w(h') / ((|h'|-1) * Deg(x))``, accumulated over
    all shared hyperedges.
    """
    if hg.flavor != UNDIRECTED:
        raise errors.UnsupportedFlavor("measure_undirected needs the undirected flavor")
    a = as_alpha(alpha)
    deg = hg.degree(x)
    if deg == 0:
        raise errors.DivisionByZeroDegree(f"vertex {x} has zero degree")
    mass = {x: a}
    for e in hg.edges_containing(x):
        edge = hg.edges[e]
        share = edge.weight / ((len(edge) - 1) * deg)
        for z in edge.vertices:
            if z != x:
                mass[z] = mass.get(z, Fraction(0)) + (1 - a) * share
    return _finish(mass, a)


def _tail_vertex(hg: Hypergraph, edge_index: int, i: int) -> tuple[int, int]:
    tail = hg.edges[edge_index].sorted_tail()
    if not (0 <= i < len(tail)):
        raise errors.IndexOutOfRange(f"tail index {i} out of range for size {len(tail)}")
    return tail[i], len(tail)


def _head_vertex(hg: Hypergraph, edge_index: int, j: int) -> tuple[int, int]:
    head = hg.edges[edge_index].sorted_head()
    if not (0 <= j < len(head)):
        raise errors.IndexOutOfRange(f"head index {j} out of range for size {len(head)}")
    return head[j], len(head)


def _require_directed(hg: Hypergraph) -> None:
    if hg.flavor == UNDIRECTED:
        raise errors.UnsupportedFlavor("directed walk measures need a directed or oriented flavor")


def measure_directed_in(hg: Hypergraph, edge_index: int, i: int, alpha) -> ProbabilityMeasure:
    """Constituent in-measure of the i-th tail vertex (sorted order, 0-based).

    Total mass is 1/n where n is the tail size: alpha/n stays at the
    vertex, the rest spreads backward over its in-neighborhood.
    """
    _require_directed(hg)
    a = as_alpha(alpha)
    x, n = _tail_vertex(hg, edge_index, i)
    denom = hg.in_weight(x)
    if denom == 0:
        raise errors.DivisionByZeroDegree(f"vertex {x} heads no hyperedge")
    mass = {x: a / n}
    for e in hg.edges_with_head(x):
        edge = hg.edges[e]
        share = edge.weight / (n * len(edge.tail) * denom)
        for z in edge.tail:
            mass[z] = mass.get(z, Fraction(0)) + (1 - a) * share
    return _finish(mass, a)


def measure_directed_out(hg: Hypergraph, edge_index: int, j: int, alpha) -> ProbabilityMeasure:
    """Constituent out-measure of the j-th head vertex (sorted order, 0-based).

    Total mass is 1/m where m is the head size: alpha/m stays at the
    vertex, the rest spreads forward over its out-neighborhood.
    """
    _require_directed(hg)
    a = as_alpha(alpha)
    y, m = _head_vertex(hg, edge_index, j)
    denom = hg.out_weight(y)
    if denom == 0:
        raise errors.DivisionByZeroDegree(f"vertex {y} tails no hyperedge")
    mass = {y: a / m}
    for e in hg.edges_with_tail(y):
        edge = hg.edges[e]
        share = edge.weight / (m * len(edge.head) * denom)
        for z in edge.head:
            mass[z] = mass.get(z, Fraction(0)) + (1 - a) * share
    return _finish(mass, a)


def measure_set(hg: Hypergraph, edge_index: int, side: str, alpha) -> ProbabilityMeasure:
    """Sum of all constituent measures of one side of a directed hyperedge.

    ``side`` is ``"tail"`` (in-measures) or ``"head"`` (out-measures).
    Overlapping supports accumulate; the total is exactly 1.
    """
    _require_directed(hg)
    a = as_alpha(alpha)
    edge = hg.edges[edge_index]
    if side == "tail":
        parts = [measure_directed_in(hg, edge_index, i, a) for i in range(len(edge.tail))]
    elif side == "head":
        parts = [measure_directed_out(hg, edge_index, j, a) for j in range(len(edge.head))]
    else:
        raise ValueError(f"side must be 'tail' or 'head', got {side!r}")
    mass: dict[int, Fraction] = {}
    for p in parts:
        for v, m in p.mass.items():
            mass[v] = mass.get(v, Fraction(0)) + m
    return _finish(mass, a)


def measure_oriented_pair(hg: Hypergraph, u: int, direction: str, alpha) -> ProbabilityMeasure:
    """Single-vertex walk measure used for pair curvature on oriented hypergraphs.

    ``direction="in"`` spreads backward over tails of edges heading into u,
    ``direction="out"`` forward over heads of edges tailing out of u; both
    keep mass ``alpha`` at u and total exactly 1.
    """
    if hg.flavor != ORIENTED:
        raise errors.NotOriented("pair walk measures need the oriented flavor")
    return _pair_measure(hg, u, direction, alpha)


def _pair_measure(hg: Hypergraph, u: int, direction: str, alpha) -> ProbabilityMeasure:
    a = as_alpha(alpha)
    mass = {u: a}
    if direction == "in":
        denom = hg.in_weight(u)
        if denom == 0:
            raise errors.DivisionByZeroDegree(f"vertex {u} heads no hyperedge")
        for e in hg.edges_with_head(u):
            edge = hg.edges[e]
            share = edge.weight / (len(edge.tail) * denom)
            for z in edge.tail:
                mass[z] = mass.get(z, Fraction(0)) + (1 - a) * share
    elif direction == "out":
        denom = hg.out_weight(u)
        if denom == 0:
            raise errors.DivisionByZeroDegree(f"vertex {u} tails no hyperedge")
        for e in hg.edges_with_tail(u):
            edge = hg.edges[e]
            share = edge.weight / (len(edge.head) * denom)
            for z in edge.head:
                mass[z] = mass.get(z, Fraction(0)) + (1 - a) * share
    else:
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    return _finish(mass, a)
