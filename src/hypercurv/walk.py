"""Lazy random-walk probability measures on hypergraph vertex sets.

The laziness parameter ``alpha`` keeps that fraction of the mass at the
base vertex and spreads the rest over the declared neighborhood,
proportionally to hyperedge weights and inversely to hyperedge sizes.
Masses are affine functions of alpha, which the curvature limit relies on.

Every measure is the walk of a vertex set in one direction, "in" or
"out"; a single vertex is the one-vertex set, and a hyperedge's tail and
head sets take the in- and the out-walk. It is built from its two ends
on ints. At alpha = 1 it is ``1/n`` on each of the set's n vertices. At
alpha = 0 it is the mean of their spreads (:func:`spread`): the masses of
one step of the in- or out-walk (the undirected walk is the out-walk; on an
oriented hypergraph, closed under reversal, the two are equal), as ints
over one int denominator, computed from the int edge weights of
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


def spread(hg: Hypergraph, kind: str, x: int) -> IntMasses:
    """One walk step from x at alpha = 0, as int masses over one denominator.

    ``kind`` ``"out"``: each head vertex z != x of a hyperedge h' tailing out
    of x receives ``w(h') / (|head h' \\ {x}| * w_out(x))``; ``"in"`` likewise
    with tails and ``w_in(x)``. An undirected h' is its own tail and head,
    so there both walks give ``w(h') / ((|h'|-1) * Deg(x))``. Shares
    accumulate over hyperedges; the masses total 1. The shares are summed
    over the lcm of the size terms times the int degree, and the result is
    put in lowest terms. The degree is positive: ``build`` refuses a
    hypergraph that is not (strongly) connected, and n >= 2.
    """
    weights = hg.scaled_weights[0]
    if kind == "in":
        incident, side = hg.edges_with_head(x), "tail"
    else:
        incident, side = hg.edges_with_tail(x), "head"
    parts = []
    for e in incident:
        part = getattr(hg.edges[e], side)
        # only an undirected hyperedge holds x in the part it steps to
        parts.append((weights[e], part - {x} if x in part else part))
    deg = sum(w for w, _part in parts)
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


def walk_ends(hg: Hypergraph, part: tuple, direction: str) -> tuple[IntMasses, IntMasses]:
    """The int masses at alpha = 0 and at alpha = 1 of the walk measure of a vertex set.

    ``part`` is a sorted tuple of n vertices, a single vertex being the
    one-vertex set, and ``direction`` is ``"in"`` or ``"out"``. At alpha = 0
    the measure is the mean of the ``direction`` spreads of its vertices;
    at alpha = 1 it is ``1/n`` on each vertex. The measure at alpha is
    ``(1-alpha)`` times the first plus ``alpha`` times the second. Each end
    is in lowest terms, so its denominator is the lcm of its masses'
    reduced denominators. Flavors and vertex ids are the caller's to check.
    """
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
    return _view(walk_ends(hg, (x,), "out"), a)


def _member(members: tuple[int, ...], side: str, i: int) -> tuple[int, int]:
    """The i-th of a hyperedge's sorted ``side`` members, and how many there are."""
    if not (0 <= i < len(members)):
        raise errors.IndexOutOfRange(f"{side} index {i} out of range for size {len(members)}")
    return members[i], len(members)


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
    x, n = _member(hg.edges[edge_index].sorted_tail(), "tail", i)
    return _view(walk_ends(hg, (x,), "in"), a, n)


def measure_directed_out(hg: Hypergraph, edge_index: int, j: int, alpha) -> ProbabilityMeasure:
    """Constituent out-measure of the j-th head vertex (sorted order, 0-based).

    Total mass is 1/m where m is the head size: alpha/m stays at the
    vertex, the rest spreads forward over its out-neighborhood.
    """
    _require_directed(hg)
    a = as_alpha(alpha)
    y, m = _member(hg.edges[edge_index].sorted_head(), "head", j)
    return _view(walk_ends(hg, (y,), "out"), a, m)


def measure_set(hg: Hypergraph, edge_index: int, side: str, alpha) -> ProbabilityMeasure:
    """Sum of all constituent measures of one side of a directed hyperedge.

    ``side`` is ``"tail"`` (in-measures) or ``"head"`` (out-measures).
    Overlapping supports accumulate; the total is exactly 1.
    """
    _require_directed(hg)
    a = as_alpha(alpha)
    edge = hg.edges[edge_index]
    if side == "tail":
        ends = walk_ends(hg, edge.sorted_tail(), "in")
    elif side == "head":
        ends = walk_ends(hg, edge.sorted_head(), "out")
    else:
        raise ValueError(f"side must be 'tail' or 'head', got {side!r}")
    return _view(ends, a)


def measure_oriented_pair(hg: Hypergraph, u: int, alpha) -> ProbabilityMeasure:
    """Single-vertex walk measure used for pair curvature on oriented hypergraphs.

    It keeps mass ``alpha`` at u and spreads the rest forward over heads of
    edges tailing out of u; reversal closure makes that the backward spread
    over tails of edges heading into u too. The total is exactly 1.
    """
    if hg.flavor != ORIENTED:
        raise errors.NotOriented("pair walk measures need the oriented flavor")
    return _pair_measure(hg, u, "out", alpha)


def _pair_measure(hg: Hypergraph, u: int, direction: str, alpha) -> ProbabilityMeasure:
    return _view(walk_ends(hg, (u,), direction), as_alpha(alpha))
