"""Ollivier-type curvature for vertex pairs and hyperedges, and its Lin-Lu-Yau limit.

Pair curvature is ``1 - W(mu_u, mu_v) / d(u, v)`` with the walk measures of
the flavor at hand. Hyperedge curvature aggregates all pairwise transports
inside the edge (undirected) or couples the tail and head set measures
(directed/oriented).

The Lin-Lu-Yau value is the limit of ``g(alpha) = kappa_alpha / (1-alpha)``
as alpha approaches 1. Because the transport optimum is piecewise linear
in alpha and kappa vanishes at alpha=1, g is constant near 1; sampling at
``alpha_k = 1 - 2**-k`` and stopping at the first two equal consecutive
values certifies the limit exactly. A directed hyperedge whose curvature
at alpha=1 is strictly negative has no finite limit, and the limit search
reports that instead of truncating silently. Every value is an exact
rational; printing it as a decimal is left to the caller.

The walk measures are affine in alpha, so W is convex and piecewise linear
in alpha: one transport solve, ranged over the basis it ends on, gives the
exact W on a whole interval of alpha. The solves, the pieces and the
curvature numerators are ints; each kappa becomes one Fraction at the end.

:class:`Evaluator` does all of this for one hypergraph and remembers every
measure, transport value and limit it computes; the module-level
functions are one-shot wrappers over a fresh Evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import errors
from .hypergraph import ORIENTED, UNDIRECTED, Hypergraph
from .metric import DistanceOracle, edge_length
from .rational import as_alpha
from .transport import LinearPiece, linear_piece, wasserstein
from .walk import (
    _pair_measure,
    measure_set,
    measure_undirected,
)

DEFAULT_ALPHA_GRID = tuple(Fraction(k, 10) for k in range(10)) + (Fraction(99, 100),)
DEFAULT_K_MAX = 24


@dataclass(frozen=True)
class AlphaCurve:
    """Sampled (alpha, kappa_alpha) values plus the normalized curve."""

    samples: tuple
    normalized: tuple


@dataclass(frozen=True)
class CurvatureReport:
    """LLY limit of one target together with its sampled alpha curve."""

    target: tuple
    variant: str | None
    curve: AlphaCurve
    lly: Fraction
    stabilization_alpha: Fraction


def _require_pair_flavor(hg: Hypergraph, oracle: DistanceOracle) -> None:
    if hg.flavor == UNDIRECTED or hg.flavor == ORIENTED:
        return
    # Plain directed hypergraphs support pair curvature only when their
    # quasi-distance happens to be symmetric; that symmetry is all the
    # oriented constructions actually use.
    if not oracle.symmetric:
        raise errors.UnsupportedFlavor(
            "pair curvature needs the undirected or oriented flavor, "
            "or a directed instance with symmetric quasi-distance"
        )


@dataclass
class EvalStats:
    """Work counters of one Evaluator: computations done, memo hits, simplex pivots.

    Each solve yields one linear piece of W(alpha) for its target; a solve
    hit is a transport value read off a stored piece. Measures count walk
    measures built (two per vertex or side, at alpha 0 and 1); a measure
    hit is a reuse of such a pair.
    """

    solves: int = 0
    solve_hits: int = 0
    pivots: int = 0
    degenerate_pivots: int = 0
    measures: int = 0
    measure_hits: int = 0
    limits: int = 0
    limit_hits: int = 0


class Limit(NamedTuple):
    """LLY limit of one target and the alpha at which it was certified."""

    lly: Fraction
    stabilization_alpha: Fraction


class _Support(NamedTuple):
    """Both sides of one transport target at alpha 0 and 1, as int masses.

    ``rows`` and ``cols`` are the sorted union supports of the two sides;
    ``mu0``/``mu1`` are the row masses and ``nu0``/``nu1`` the column masses
    at alpha 0 and 1, each times ``scale``, zeros kept.
    """

    rows: list
    cols: list
    mu0: list
    mu1: list
    nu0: list
    nu1: list
    scale: int


class Evaluator:
    """Curvature of one hypergraph, each measure, transport and limit computed once.

    Walk measures are memoised at alpha 0 and 1 by (constructor, vertex or
    edge, direction or side); the measure at any other alpha is their affine
    blend. Transport values are memoised per pair or directed edge as the
    exact linear pieces of W(alpha) that the solves found, and limits by
    (target, variant where it matters, k_max). A one-to-one directed
    hyperedge shares the transport entry of the pair of its ends. A limit
    that does not stabilize is remembered and raised again. Couplings are
    never built. Build one per hypergraph and oracle and drop it with them:
    the memo is never shared between runs.
    """

    def __init__(self, hg: Hypergraph, oracle: DistanceOracle):
        self.hg = hg
        self.oracle = oracle
        self.stats = EvalStats()
        self._measures: dict[tuple, list] = {}
        self._transports: dict[tuple, tuple[_Support, list[LinearPiece]]] = {}
        self._lengths: dict[tuple, int] = {}
        self._limits: dict[tuple, Limit | errors.NoStabilization] = {}

    def _ends(self, kind: str, where: int, side: str | None):
        """Walk measures of one vertex or side at alpha 0 and 1.

        Every walk measure is affine in alpha, so the measure at any alpha is
        ``(1-alpha)*mu0 + alpha*mu1`` of these two.
        """
        key = (kind, where, side)
        ends = self._measures.get(key)
        if ends is not None:
            self.stats.measure_hits += 1
            return ends
        ends = []
        for a in (Fraction(0), Fraction(1)):
            self.stats.measures += 1
            if kind == "undirected":
                ends.append(measure_undirected(self.hg, where, a))
            elif kind == "pair":
                ends.append(_pair_measure(self.hg, where, side, a))
            else:
                ends.append(measure_set(self.hg, where, side, a))
        self._measures[key] = ends
        return ends

    def _support(self, target: tuple) -> _Support:
        """Union supports and int endpoint masses of one transport target."""
        if target[0] == "edge":
            mu0, mu1 = self._ends("set", target[1], "tail")
            nu0, nu1 = self._ends("set", target[1], "head")
        elif self.hg.flavor == UNDIRECTED:
            mu0, mu1 = self._ends("undirected", target[1], None)
            nu0, nu1 = self._ends("undirected", target[2], None)
        else:
            mu0, mu1 = self._ends("pair", target[1], "in")
            nu0, nu1 = self._ends("pair", target[2], "out")
        masses = [mu.mass for mu in (mu0, mu1, nu0, nu1)]
        scale = math.lcm(*{m.denominator for mass in masses for m in mass.values()})
        rows = sorted(masses[0].keys() | masses[1].keys())
        cols = sorted(masses[2].keys() | masses[3].keys())

        def scaled(mass, support):
            return [
                m.numerator * (scale // m.denominator)
                for m in (mass.get(v, 0) for v in support)
            ]

        return _Support(
            rows,
            cols,
            scaled(masses[0], rows),
            scaled(masses[1], rows),
            scaled(masses[2], cols),
            scaled(masses[3], cols),
            scale,
        )

    def _transport(self, target: tuple, p: int, q: int) -> tuple[int, int]:
        """W at alpha ``p/q`` of a pair ``("pair", u, v)`` or edge ``("edge", h)``.

        Returns ints ``(w, s)`` with ``W = w / (q * s * oracle.scale)``. Each
        solve, at any alpha in [0, 1], runs on the union supports of the
        target's endpoint measures and is ranged into the exact linear piece
        of W around it; every later alpha on a stored piece is read off it
        without a solve.
        """
        if target[0] == "edge":
            edge = self.hg.edges[target[1]]
            if len(edge.tail) == 1 and len(edge.head) == 1:
                # The set measures of a one-to-one hyperedge are the pair
                # measures of its ends, so both targets share one entry.
                target = ("pair", *edge.tail, *edge.head)
        entry = self._transports.get(target)
        if entry is None:
            entry = self._transports[target] = (self._support(target), [])
        support, pieces = entry
        for piece in pieces:
            if piece.covers(p, q):
                self.stats.solve_hits += 1
                return piece.at(p, q), support.scale
        self.stats.solves += 1
        # (1-alpha)*m0 + alpha*m1, times q: masses on the scale q * support.scale.
        r = q - p
        result = wasserstein(
            {v: r * m0 + p * m1 for v, m0, m1 in zip(support.rows, support.mu0, support.mu1)},
            {v: r * m0 + p * m1 for v, m0, m1 in zip(support.cols, support.nu0, support.nu1)},
            self.oracle,
        )
        self.stats.pivots += result.pivots
        self.stats.degenerate_pivots += result.degenerate_pivots
        piece = linear_piece(
            result, support.mu0, support.nu0, support.mu1, support.nu1, self.oracle
        )
        pieces.append(piece)
        return piece.at(p, q), support.scale

    def _length(self, edge_index: int, variant: str) -> int:
        """Length of a hyperedge under ``variant``, times ``oracle.scale``."""
        key = (edge_index, variant)
        length = self._lengths.get(key)
        if length is None:
            value = edge_length(self.hg, self.oracle, edge_index, variant).value
            length = self._lengths[key] = int(value * self.oracle.scale)
        return length

    def kappa(self, target: tuple, alpha, variant: str = "sum"):
        """``kappa_alpha`` of a ``("pair", u, v)`` or ``("edge", h)`` target.

        ``variant`` is the length normalizer of undirected hyperedges and is
        ignored elsewhere.
        """
        return self._kappa(target, as_alpha(alpha), variant)

    def _kappa(self, target: tuple, alpha: Fraction, variant: str) -> Fraction:
        """``kappa`` at an alpha already checked to lie in [0, 1]."""
        hg, oracle = self.hg, self.oracle
        p, q = alpha.numerator, alpha.denominator
        kind = target[0]
        if kind == "pair":
            u, v = target[1], target[2]
            if u == v:
                raise errors.SamePair(
                    f"pair curvature needs two distinct vertices, got ({u}, {v})"
                )
            _require_pair_flavor(hg, oracle)
            w, s = self._transport(("pair", u, v), p, q)
            # 1 - W/d with W = w / (q*s*scale) and d = table[u][v] / scale.
            den = q * s * oracle.table[u][v]
            return Fraction(den - w, den)
        if kind != "edge":
            raise ValueError(f"unknown target kind {kind!r}")
        if hg.flavor != UNDIRECTED:
            w, s = self._transport(("edge", target[1]), p, q)
            den = q * s * self._length(target[1], "min")
            return Fraction(den - w, den)
        # The defect sum of d - W over member pairs, times q * scale, is
        # defect / den; each pair's term comes over its own mass scale s.
        vs = hg.edges[target[1]].sorted_vertices()
        defect, den = 0, 1
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                w, s = self._transport(("pair", vs[i], vs[j]), p, q)
                if den % s:
                    grown = math.lcm(den, s)
                    defect *= grown // den
                    den = grown
                defect += (q * s * oracle.table[vs[i]][vs[j]] - w) * (den // s)
        return Fraction(defect, den * q * self._length(target[1], variant))

    def _variant_key(self, target: tuple, variant: str) -> str | None:
        return variant if target[0] == "edge" and self.hg.flavor == UNDIRECTED else None

    def limit(self, target: tuple, variant: str = "sum", k_max: int = DEFAULT_K_MAX) -> Limit:
        """Normalized-curvature limit of a target, without sampling any alpha grid.

        Samples ``g(alpha_k)`` at ``alpha_k = 1 - 2**-k`` for k = 2, 3, ... and
        declares the limit at the first two exactly equal consecutive values.
        Raises NoStabilization when k_max is exhausted, or immediately when
        the target provably diverges.
        """
        target = tuple(target)
        key = (target, self._variant_key(target, variant), k_max)
        found = self._limits.get(key)
        if found is not None:
            self.stats.limit_hits += 1
            if isinstance(found, errors.NoStabilization):
                raise errors.NoStabilization(*found.args)
            return found
        self.stats.limits += 1
        try:
            found = self._search(target, variant, k_max)
        except errors.NoStabilization as exc:
            self._limits[key] = exc
            raise
        self._limits[key] = found
        return found

    def _search(self, target: tuple, variant: str, k_max: int) -> Limit:
        if target[0] == "edge" and self.hg.flavor != UNDIRECTED:
            kappa_one = self._kappa(target, Fraction(1), variant)
            if kappa_one < 0:
                raise errors.NoStabilization(
                    f"target {target} has curvature {kappa_one} at alpha=1; "
                    "the normalized curve decreases without bound"
                )
        prev = None
        prev_alpha = None
        for kk in range(2, k_max + 1):
            a = Fraction(2**kk - 1, 2**kk)
            g = self._kappa(target, a, variant) / (1 - a)
            if g == prev:
                return Limit(lly=g, stabilization_alpha=prev_alpha)
            prev, prev_alpha = g, a
        raise errors.NoStabilization(
            f"normalized curvature of {target} did not settle within k <= {k_max}"
        )

    def report(
        self, target: tuple, variant: str = "sum", grid=None, k_max: int = DEFAULT_K_MAX
    ) -> CurvatureReport:
        """``limit`` of the target plus its curve sampled on ``grid``.

        ``grid`` defaults to ``DEFAULT_ALPHA_GRID``.
        """
        grid = DEFAULT_ALPHA_GRID if grid is None else tuple(as_alpha(a) for a in grid)
        found = self.limit(target, variant, k_max)
        samples = []
        normalized = []
        for a in grid:
            k = self._kappa(target, a, variant)
            samples.append((a, k))
            if a != 1:
                normalized.append((a, k / (1 - a)))
        return CurvatureReport(
            target=tuple(target),
            variant=self._variant_key(target, variant),
            curve=AlphaCurve(samples=tuple(samples), normalized=tuple(normalized)),
            lly=found.lly,
            stabilization_alpha=found.stabilization_alpha,
        )


def kappa_alpha_pair(hg: Hypergraph, oracle: DistanceOracle, u: int, v: int, alpha):
    """Curvature ``1 - W(mu_u, mu_v)/d(u, v)`` of an ordered vertex pair."""
    return Evaluator(hg, oracle).kappa(("pair", u, v), alpha)


def kappa_alpha_edge_undirected(
    hg: Hypergraph,
    oracle: DistanceOracle,
    edge_index: int,
    alpha,
    variant: str = "sum",
):
    """Curvature of an undirected hyperedge under a length normalizer.

    The numerator is the transport defect summed over all member pairs,
    ``sum_{i<j} (d(x_i, x_j) - W(mu_i, mu_j))``; the denominator is the
    selected length variant. With ``variant="sum"`` this is exactly
    ``1 - (sum of pairwise W) / L_sum``, the form whose normalized value
    stays bounded; min and max rescale the same defect, keeping the value
    zero at alpha=1 so the normalized curve still converges.
    """
    if hg.flavor != UNDIRECTED:
        raise errors.UnsupportedFlavor("use kappa_alpha_edge_directed for directed flavors")
    return Evaluator(hg, oracle).kappa(("edge", edge_index), alpha, variant)


def kappa_alpha_edge_directed(hg: Hypergraph, oracle: DistanceOracle, edge_index: int, alpha):
    """Curvature ``1 - W(mu_tail, mu_head)/L(h)`` of a directed hyperedge."""
    if hg.flavor == UNDIRECTED:
        raise errors.UnsupportedFlavor("use kappa_alpha_edge_undirected for the undirected flavor")
    return Evaluator(hg, oracle).kappa(("edge", edge_index), alpha)


def lly_limit(
    hg: Hypergraph,
    oracle: DistanceOracle,
    target: tuple,
    variant: str = "sum",
    alpha_grid=None,
    k_max: int = DEFAULT_K_MAX,
) -> CurvatureReport:
    """Normalized-curvature limit of a ``("pair", u, v)`` or ``("edge", h)`` target.

    The limit search is :meth:`Evaluator.limit`; the report adds the curve
    sampled on ``alpha_grid`` (default ``DEFAULT_ALPHA_GRID``).
    """
    return Evaluator(hg, oracle).report(target, variant, alpha_grid, k_max)


def well_transported_pairs(hg: Hypergraph, oracle: DistanceOracle) -> list[tuple[int, int, int]]:
    """All (u, v, edge) triples with u, v in the edge and d(u, v) equal to its weight."""
    if hg.flavor != UNDIRECTED:
        raise errors.UnsupportedFlavor("well-transported pairs are an undirected notion")
    found = []
    for k, edge in enumerate(hg.edges):
        vs = edge.sorted_vertices()
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                if oracle.d(vs[i], vs[j]) == edge.weight:
                    found.append((vs[i], vs[j], k))
    found.sort()
    return found
