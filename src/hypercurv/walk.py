"""Lazy random-walk probability measures on hypergraph vertex sets.

The laziness parameter ``alpha`` keeps that fraction of the mass at the
base vertex and spreads the rest over the declared neighborhood,
proportionally to hyperedge weights and inversely to hyperedge sizes.
Masses are affine functions of alpha, which the curvature limit relies on.

Every measure is built from its two ends on ints. At alpha = 1 it is a
point mass: the base vertex, or ``1/n`` on each of the n tail or head
vertices of a set measure. At alpha = 0 it is a :func:`spread`: the masses
of one step of the undirected, in- or out-walk, as ints over one int
denominator, computed from the int edge weights of
``Hypergraph.scaled_weights``. :func:`walk_ends` gives both ends, and the
Evaluator scales them straight into its transport families; the
constructors below are exact ``Fraction`` views of the same ends, each
mass made a Fraction once.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import errors
from .hypergraph import ORIENTED, UNDIRECTED, Hypergraph
from .rational import as_alpha

# ``({vertex: numerator}, denominator)``: int masses over one int denominator,
# zero masses never stored.
IntMasses = tuple[dict[int, int], int]


class ProbabilityMeasure:
    """Sparse nonnegative mass map over vertex ids.

    Zero-mass entries are never stored, so ``support()`` is exactly the
    set of vertices carrying mass.
    """

    __slots__ = ("mass", "alpha")

    def __init__(self, mass: dict[int, Fraction], alpha: Fraction):
        self.mass = mass
        self.alpha = alpha

    def __getitem__(self, v: int) -> Fraction:
        return self.mass.get(v, Fraction(0))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.mass))

    def total(self) -> Fraction:
        return sum(self.mass.values(), Fraction(0))


_NO_EDGE = {
    "undirected": "vertex {} has zero degree",
    "in": "vertex {} heads no hyperedge",
    "out": "vertex {} tails no hyperedge",
}


def spread(hg: Hypergraph, kind: str, x: int) -> IntMasses:
    """One walk step from x at alpha = 0, as int masses over one denominator.

    ``kind`` ``"undirected"``: each co-member z of a hyperedge h' containing
    x receives ``w(h') / ((|h'|-1) * Deg(x))``. ``"in"``: each tail vertex z
    of a hyperedge h' heading into x receives ``w(h') / (|tail h'| * w_in(x))``.
    ``"out"``: each head vertex of a hyperedge tailing out of x, likewise
    with heads and ``w_out(x)``. Shares accumulate over hyperedges; the
    masses total 1. The shares are summed over the lcm of the size terms
    times the int degree, and the result is put in lowest terms.
    """
    weights = hg.scaled_weights[0]
    if kind == "undirected":
        parts = [(weights[e], hg.edges[e].vertices - {x}) for e in hg.edges_containing(x)]
    elif kind == "in":
        parts = [(weights[e], hg.edges[e].tail) for e in hg.edges_with_head(x)]
    else:
        parts = [(weights[e], hg.edges[e].head) for e in hg.edges_with_tail(x)]
    deg = sum(w for w, _part in parts)
    if deg == 0:
        raise errors.DivisionByZeroDegree(_NO_EDGE[kind].format(x))
    size = math.lcm(*{len(part) for _w, part in parts})
    mass: dict[int, int] = {}
    for w, part in parts:
        share = w * (size // len(part))
        for z in part:
            mass[z] = mass.get(z, 0) + share
    return _lowest(mass, size * deg)


def _lowest(mass: dict[int, int], den: int) -> IntMasses:
    """``mass`` and ``den`` divided by their common gcd.

    The denominator is then the lcm of the reduced denominators of the
    masses, the scale a ``Fraction`` of each mass would bring.
    """
    g = math.gcd(den, *mass.values())
    if g == 1:
        return mass, den
    return {v: m // g for v, m in mass.items()}, den // g


def walk_ends(
    hg: Hypergraph, kind: str, where: int, side: str | None
) -> tuple[IntMasses, IntMasses]:
    """The int masses of one walk measure at alpha = 0 and at alpha = 1.

    ``kind`` ``"undirected"``: the walk of vertex ``where``. ``"pair"``: the
    in- or out-walk (``side`` ``"in"``/``"out"``) of vertex ``where``.
    ``"set"``: the sum of the in-walks of the tail vertices (``side``
    ``"tail"``) or the out-walks of the head vertices (``"head"``) of
    hyperedge ``where``, each of mass ``1/n`` for n vertices on that side.
    The measure at alpha is ``(1-alpha)`` times the first plus ``alpha``
    times the second. Each end is in lowest terms, so its denominator is
    the lcm of its masses' reduced denominators. Flavors and vertex ids
    are the caller's to check.
    """
    if kind == "undirected":
        return spread(hg, "undirected", where), ({where: 1}, 1)
    if kind == "pair":
        return spread(hg, side, where), ({where: 1}, 1)
    edge = hg.edges[where]
    if side == "tail":
        part, direction = edge.tail, "in"
    elif side == "head":
        part, direction = edge.head, "out"
    else:
        raise ValueError(f"side must be 'tail' or 'head', got {side!r}")
    parts = [spread(hg, direction, x) for x in part]
    common = math.lcm(*{den for _mass, den in parts})
    mass: dict[int, int] = {}
    for m, den in parts:
        factor = common // den
        for z, num in m.items():
            mass[z] = mass.get(z, 0) + num * factor
    n = len(part)
    return _lowest(mass, common * n), (dict.fromkeys(part, 1), n)


def _view(ends: tuple[IntMasses, IntMasses], a: Fraction, n: int = 1) -> ProbabilityMeasure:
    """``((1-a) * mu0 + a * mu1) / n`` of two int ends, each mass one Fraction."""
    (mass0, den0), (mass1, den1) = ends
    p, q = a.numerator, a.denominator
    r0, r1 = (q - p) * den1, p * den0
    den = q * den0 * den1 * n
    mass = {}
    for v in mass1.keys() | mass0.keys():
        num = r0 * mass0.get(v, 0) + r1 * mass1.get(v, 0)
        if num:
            mass[v] = Fraction(num, den)
    return ProbabilityMeasure(mass=mass, alpha=a)


def measure_undirected(hg: Hypergraph, x: int, alpha) -> ProbabilityMeasure:
    """Walk measure of a vertex in an undirected hypergraph.

    Keeps ``alpha`` at x; each co-member z of a shared hyperedge h'
    receives ``(1-alpha) * w(h') / ((|h'|-1) * Deg(x))``, accumulated over
    all shared hyperedges.
    """
    if hg.flavor != UNDIRECTED:
        raise errors.UnsupportedFlavor("measure_undirected needs the undirected flavor")
    a = as_alpha(alpha)
    return _view(walk_ends(hg, "undirected", x, None), a)


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
    return _view(walk_ends(hg, "pair", x, "in"), a, n)


def measure_directed_out(hg: Hypergraph, edge_index: int, j: int, alpha) -> ProbabilityMeasure:
    """Constituent out-measure of the j-th head vertex (sorted order, 0-based).

    Total mass is 1/m where m is the head size: alpha/m stays at the
    vertex, the rest spreads forward over its out-neighborhood.
    """
    _require_directed(hg)
    a = as_alpha(alpha)
    y, m = _head_vertex(hg, edge_index, j)
    return _view(walk_ends(hg, "pair", y, "out"), a, m)


def measure_set(hg: Hypergraph, edge_index: int, side: str, alpha) -> ProbabilityMeasure:
    """Sum of all constituent measures of one side of a directed hyperedge.

    ``side`` is ``"tail"`` (in-measures) or ``"head"`` (out-measures).
    Overlapping supports accumulate; the total is exactly 1.
    """
    _require_directed(hg)
    a = as_alpha(alpha)
    return _view(walk_ends(hg, "set", edge_index, side), a)


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
    if direction != "in" and direction != "out":
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    return _view(walk_ends(hg, "pair", u, direction), a)
