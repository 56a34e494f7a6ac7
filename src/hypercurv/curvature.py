"""Ollivier-type curvature for vertex pairs and hyperedges, and its Lin-Lu-Yau limit.

Pair curvature is ``1 - W(mu_u, mu_v) / d(u, v)`` with the walk measures of
the flavor at hand. Hyperedge curvature aggregates all pairwise transports
inside the edge (undirected) or couples the tail and head set measures
(directed/oriented).

The Lin-Lu-Yau value is the limit of ``g(alpha) = kappa_alpha / (1-alpha)``
as alpha approaches 1. Because the transport optimum is piecewise linear
in alpha and kappa vanishes at alpha=1, g is constant near 1; sampling at
``alpha_k = 1 - 2**-k`` and stopping at the first two equal consecutive
values certifies the limit exactly in rational mode. A directed hyperedge
whose curvature at alpha=1 is strictly negative has no finite limit, and
the limit search reports that instead of truncating silently.

:class:`Evaluator` does all of this for one hypergraph and remembers every
measure, transport value and limit it computes; the module-level
functions are one-shot wrappers over a fresh Evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import errors
from .hypergraph import ORIENTED, UNDIRECTED, Hypergraph
from .metric import DistanceOracle, edge_length
from .rational import as_alpha
from .transport import wasserstein
from .walk import (
    _pair_measure,
    measure_set,
    measure_undirected,
)

DEFAULT_ALPHA_GRID = tuple(Fraction(k, 10) for k in range(10)) + (Fraction(99, 100),)
DEFAULT_K_MAX = 24
FLOAT_TOL = 1e-9


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
    """Work counters of one Evaluator: computations done and memo hits."""

    solves: int = 0
    solve_hits: int = 0
    measures: int = 0
    measure_hits: int = 0
    limits: int = 0
    limit_hits: int = 0


class Limit(NamedTuple):
    """LLY limit of one target and the alpha at which it was certified."""

    lly: Fraction
    stabilization_alpha: Fraction


class Evaluator:
    """Curvature of one hypergraph, each measure, transport and limit computed once.

    Walk measures are memoised by (constructor, vertex or edge, direction
    or side, alpha), transport values by (pair or directed edge, alpha), and
    limits by (target, variant where it matters, k_max). A one-to-one
    directed hyperedge shares the transport entry of the pair of its ends.
    A limit that does not stabilize is remembered and raised again. Only
    transport values are kept, never couplings. Build one per hypergraph
    and oracle and drop it with them: the memo is never shared between
    runs.
    """

    def __init__(
        self, hg: Hypergraph, oracle: DistanceOracle, exact: bool = True, tol: float = FLOAT_TOL
    ):
        self.hg = hg
        self.oracle = oracle
        self.exact = exact
        self.tol = tol
        self.stats = EvalStats()
        self._measures: dict[tuple, object] = {}
        self._transports: dict[tuple, object] = {}
        self._limits: dict[tuple, Limit | errors.NoStabilization] = {}

    def _measure(self, kind: str, where: int, side: str | None, alpha: Fraction):
        key = (kind, where, side, alpha)
        mu = self._measures.get(key)
        if mu is not None:
            self.stats.measure_hits += 1
            return mu
        self.stats.measures += 1
        if kind == "undirected":
            mu = measure_undirected(self.hg, where, alpha)
        elif kind == "pair":
            mu = _pair_measure(self.hg, where, side, alpha)
        else:
            mu = measure_set(self.hg, where, side, alpha)
        self._measures[key] = mu
        return mu

    def _transport(self, target: tuple, alpha: Fraction):
        """W between the two measures of a pair ``("pair", u, v)`` or edge ``("edge", h)``."""
        if target[0] == "edge":
            edge = self.hg.edges[target[1]]
            if len(edge.tail) == 1 and len(edge.head) == 1:
                # The set measures of a one-to-one hyperedge are the pair
                # measures of its ends, so both targets share one solve.
                target = ("pair", *edge.tail, *edge.head)
        key = (target, alpha)
        w = self._transports.get(key)
        if w is not None:
            self.stats.solve_hits += 1
            return w
        self.stats.solves += 1
        if target[0] == "edge":
            mu = self._measure("set", target[1], "tail", alpha)
            nu = self._measure("set", target[1], "head", alpha)
        elif self.hg.flavor == UNDIRECTED:
            mu = self._measure("undirected", target[1], None, alpha)
            nu = self._measure("undirected", target[2], None, alpha)
        else:
            mu = self._measure("pair", target[1], "in", alpha)
            nu = self._measure("pair", target[2], "out", alpha)
        w = wasserstein(mu, nu, self.oracle, exact=self.exact).value
        self._transports[key] = w
        return w

    def kappa(self, target: tuple, alpha, variant: str = "sum"):
        """``kappa_alpha`` of a ``("pair", u, v)`` or ``("edge", h)`` target.

        ``variant`` is the length normalizer of undirected hyperedges and is
        ignored elsewhere.
        """
        hg, oracle, exact = self.hg, self.oracle, self.exact
        kind = target[0]
        if kind == "pair":
            u, v = target[1], target[2]
            if u == v:
                raise errors.SamePair(
                    f"pair curvature needs two distinct vertices, got ({u}, {v})"
                )
            _require_pair_flavor(hg, oracle)
            w = self._transport(("pair", u, v), as_alpha(alpha))
            d = oracle.d(u, v)
            return 1 - w / d if exact else 1.0 - w / float(d)
        if kind != "edge":
            raise ValueError(f"unknown target kind {kind!r}")
        a = as_alpha(alpha)
        if hg.flavor != UNDIRECTED:
            w = self._transport(("edge", target[1]), a)
            length = edge_length(hg, oracle, target[1], "min").value
            return 1 - w / length if exact else 1.0 - w / float(length)
        vs = hg.edges[target[1]].sorted_vertices()
        defect = Fraction(0) if exact else 0.0
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                w = self._transport(("pair", vs[i], vs[j]), a)
                d = oracle.d(vs[i], vs[j])
                defect += (d - w) if exact else (float(d) - w)
        length = edge_length(hg, oracle, target[1], variant).value
        return defect / length if exact else defect / float(length)

    def _normalized(self, kappa, alpha: Fraction):
        return kappa / (1 - alpha) if self.exact else kappa / (1.0 - float(alpha))

    def _variant_key(self, target: tuple, variant: str) -> str | None:
        return variant if target[0] == "edge" and self.hg.flavor == UNDIRECTED else None

    def limit(self, target: tuple, variant: str = "sum", k_max: int = DEFAULT_K_MAX) -> Limit:
        """Normalized-curvature limit of a target, without sampling any alpha grid.

        Samples ``g(alpha_k)`` at ``alpha_k = 1 - 2**-k`` for k = 2, 3, ... and
        declares the limit at the first two equal consecutive values (equal
        within ``tol`` in float mode). Raises NoStabilization when k_max is
        exhausted, or immediately when the target provably diverges.
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
            kappa_one = self.kappa(target, Fraction(1), variant)
            diverges = kappa_one < 0 if self.exact else kappa_one < -self.tol
            if diverges:
                raise errors.NoStabilization(
                    f"target {target} has curvature {kappa_one} at alpha=1; "
                    "the normalized curve decreases without bound"
                )
        prev = None
        prev_alpha = None
        for kk in range(2, k_max + 1):
            a = Fraction(2**kk - 1, 2**kk)
            g = self._normalized(self.kappa(target, a, variant), a)
            if self.exact:
                settled = g == prev
            else:
                settled = prev is not None and abs(g - prev) <= self.tol
            if settled:
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
            k = self.kappa(target, a, variant)
            samples.append((a, k))
            if a != 1:
                normalized.append((a, self._normalized(k, a)))
        return CurvatureReport(
            target=tuple(target),
            variant=self._variant_key(target, variant),
            curve=AlphaCurve(samples=tuple(samples), normalized=tuple(normalized)),
            lly=found.lly,
            stabilization_alpha=found.stabilization_alpha,
        )


def kappa_alpha_pair(
    hg: Hypergraph, oracle: DistanceOracle, u: int, v: int, alpha, exact: bool = True
):
    """Curvature ``1 - W(mu_u, mu_v)/d(u, v)`` of an ordered vertex pair."""
    return Evaluator(hg, oracle, exact).kappa(("pair", u, v), alpha)


def kappa_alpha_edge_undirected(
    hg: Hypergraph,
    oracle: DistanceOracle,
    edge_index: int,
    alpha,
    variant: str = "sum",
    exact: bool = True,
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
    return Evaluator(hg, oracle, exact).kappa(("edge", edge_index), alpha, variant)


def kappa_alpha_edge_directed(
    hg: Hypergraph, oracle: DistanceOracle, edge_index: int, alpha, exact: bool = True
):
    """Curvature ``1 - W(mu_tail, mu_head)/L(h)`` of a directed hyperedge."""
    if hg.flavor == UNDIRECTED:
        raise errors.UnsupportedFlavor("use kappa_alpha_edge_undirected for the undirected flavor")
    return Evaluator(hg, oracle, exact).kappa(("edge", edge_index), alpha)


def lly_limit(
    hg: Hypergraph,
    oracle: DistanceOracle,
    target: tuple,
    variant: str = "sum",
    alpha_grid=None,
    k_max: int = DEFAULT_K_MAX,
    exact: bool = True,
    tol: float = FLOAT_TOL,
) -> CurvatureReport:
    """Normalized-curvature limit of a ``("pair", u, v)`` or ``("edge", h)`` target.

    The limit search is :meth:`Evaluator.limit`; the report adds the curve
    sampled on ``alpha_grid`` (default ``DEFAULT_ALPHA_GRID``).
    """
    return Evaluator(hg, oracle, exact, tol).report(target, variant, alpha_grid, k_max)


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
