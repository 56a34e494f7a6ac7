"""Ollivier-type curvature for vertex pairs and hyperedges, and its Lin-Lu-Yau limit.

Pair curvature is ``1 - W(mu_u, mu_v) / d(u, v)`` with the walk measures of
the flavor at hand. Hyperedge curvature aggregates all pairwise transports
inside the edge (undirected) or couples the tail and head set measures
(directed/oriented).

The Lin-Lu-Yau value is the limit of ``g(alpha) = kappa_alpha / (1-alpha)``
as alpha approaches 1. The walk measures are affine in alpha, so W is
convex and piecewise linear in alpha and kappa is concave: where kappa
vanishes at alpha=1, g is constant on the final linear region
``[alpha_lo, 1)`` of kappa and strictly smaller before it. The limit is
that constant, read off the final region, and it is certified at the
first ``alpha_k = 1 - 2**-k`` (k >= 2) at or past ``alpha_lo``: exactly
where sampling g at the ``alpha_k`` would find two equal consecutive
values. A directed hyperedge whose curvature at alpha=1 is strictly
negative has no finite limit, and the limit search reports that instead
of truncating silently. Every value is an exact rational; printing it as
a decimal is left to the caller.

One transport solve, ranged over the basis it ends on, gives the exact W
on a whole interval of alpha, and the neighbouring intervals are reached
from that basis by dual-simplex pivots, so each transport is solved once.
The solves, the pieces and the curvature numerators are ints; each kappa
becomes one Fraction at the end.

:class:`Evaluator` does all of this for one hypergraph and remembers every
measure, transport value and limit it computes; the module-level
functions are one-shot wrappers over a fresh Evaluator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import errors
from .hypergraph import ORIENTED, UNDIRECTED, Hypergraph
from .metric import DistanceOracle, edge_length
from .rational import as_alpha
from .transport import AffineFamily, Basis, LinearPiece, dual_pivot, ranged_basis, wasserstein
from .walk import (
    _pair_measure,
    measure_set,
    measure_undirected,
)

DEFAULT_ALPHA_GRID = tuple(Fraction(k, 10) for k in range(10)) + (Fraction(99, 100),)
DEFAULT_K_MAX = 24
# The first alpha of the dyadic rule, 1 - 2**-2: no limit is certified before it.
_ALPHA_2 = Fraction(3, 4)


class AlphaCurve(NamedTuple):
    """Sampled (alpha, kappa_alpha) values plus the normalized curve."""

    samples: tuple
    normalized: tuple


class CurvatureReport(NamedTuple):
    """LLY limit of one target together with its sampled alpha curve.

    ``alpha_lo`` is the lower end of the final linear region of kappa,
    ``[alpha_lo, 1]``; ``stabilization_alpha`` is the first ``1 - 2**-k``
    (k >= 2) at or past it.
    """

    target: tuple
    variant: str | None
    curve: AlphaCurve
    lly: Fraction
    stabilization_alpha: Fraction
    alpha_lo: Fraction


def _dyadic_index(alpha_lo: Fraction) -> int:
    """The least k >= 2 with ``1 - 2**-k >= alpha_lo``, for ``alpha_lo`` in [0, 1)."""
    num, den = alpha_lo.numerator, alpha_lo.denominator
    # 2**k >= den / (den - num) holds exactly when 2**k >= its ceiling.
    return max(2, (-(-den // (den - num)) - 1).bit_length())


def _not_settled(target: tuple, k_max: int) -> errors.NoStabilization:
    return errors.NoStabilization(
        f"normalized curvature of {target} did not settle within k <= {k_max}"
    )


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


class EvalStats:
    """Work counters of one Evaluator: computations done, memo hits, simplex pivots.

    A solve is the one cold transport solve of a target, which yields its
    first linear piece of W(alpha); ``pivots`` and ``degenerate_pivots``
    count the primal simplex pivots of those solves. Every further piece is
    traced from a neighbouring one by ``dual_pivots``; ``traced_pieces``
    counts them. A solve hit is a transport value read off a stored piece.
    Measures count walk measures built (two per vertex or side, at alpha 0
    and 1); a measure hit is a reuse of such a pair.
    """

    # In the order ``--stats`` prints them.
    __slots__ = (
        "solves",
        "solve_hits",
        "pivots",
        "degenerate_pivots",
        "traced_pieces",
        "dual_pivots",
        "measures",
        "measure_hits",
        "limits",
        "limit_hits",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value}" for name, value in self.as_dict().items())
        return f"EvalStats({body})"


class Limit(NamedTuple):
    """LLY limit of one target and the alpha at which it was certified."""

    lly: Fraction
    stabilization_alpha: Fraction


class _Chain:
    """The linear regions of one transport entry's W(alpha) found so far.

    ``lines`` holds them in alpha order as pieces, each the union of the
    neighbouring pieces traced on one line; they are contiguous, so every
    boundary between two of them is a breakpoint of W. ``low`` and ``high``
    are the optimal bases at the two ends of the chain, from which it is
    extended by dual pivots, until the chain spans [0, 1] and they are
    dropped.
    """

    __slots__ = ("family", "lines", "low", "high")

    def __init__(self, family: AffineFamily):
        self.family = family
        self.lines: list[LinearPiece] = []
        self.low: Basis | None = None
        self.high: Basis | None = None

    def store(self, basis: Basis, upward: bool) -> LinearPiece:
        """Add the piece of ``basis`` at the upper or lower end and return the
        linear region it ends up in.

        A piece on the line of the region it adjoins, met where a pivot kept
        every potential, extends that region; so does any piece next to the
        single-alpha piece of a degenerate first solve.
        """
        lines, piece = self.lines, basis.piece
        end = -1 if upward else 0
        old = lines[end] if lines else None
        if old is None:
            lines.append(piece)
        elif old.is_point() or (old.w0, old.w1) == (piece.w0, piece.w1):
            if upward:
                piece = lines[end] = piece._replace(lo_num=old.lo_num, lo_den=old.lo_den)
            else:
                piece = lines[end] = piece._replace(hi_num=old.hi_num, hi_den=old.hi_den)
        elif upward:
            lines.append(piece)
        else:
            lines.insert(0, piece)
        if lines[0].lo_num == 0 and lines[-1].hi_num == lines[-1].hi_den:
            self.low = self.high = None
        elif old is None:
            self.low = self.high = basis
        elif upward:
            self.high = basis
        else:
            self.low = basis
        return piece


class Evaluator:
    """Curvature of one hypergraph, each measure, transport and limit computed once.

    Walk measures are memoised at alpha 0 and 1 by (constructor, vertex or
    edge, direction or side); the measure at any other alpha is their affine
    blend. Transport values are memoised per pair or directed edge as a
    chain of exact linear pieces of W(alpha): one solve finds the first, and
    dual pivots trace the others as far as requested. Limits are memoised by
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
        self._transports: dict[tuple, _Chain] = {}
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

    def _family(self, key: tuple) -> AffineFamily:
        """Union supports and int endpoint masses of one transport entry."""
        if key[0] == "edge":
            mu0, mu1 = self._ends("set", key[1], "tail")
            nu0, nu1 = self._ends("set", key[1], "head")
        elif self.hg.flavor == UNDIRECTED:
            mu0, mu1 = self._ends("undirected", key[1], None)
            nu0, nu1 = self._ends("undirected", key[2], None)
        else:
            mu0, mu1 = self._ends("pair", key[1], "in")
            nu0, nu1 = self._ends("pair", key[2], "out")
        masses = [mu.mass for mu in (mu0, mu1, nu0, nu1)]
        scale = math.lcm(*{m.denominator for mass in masses for m in mass.values()})
        rows = sorted(masses[0].keys() | masses[1].keys())
        cols = sorted(masses[2].keys() | masses[3].keys())

        def scaled(mass, support):
            return [
                m.numerator * (scale // m.denominator)
                for m in (mass.get(v, 0) for v in support)
            ]

        return AffineFamily(
            rows,
            cols,
            scaled(masses[0], rows),
            scaled(masses[1], rows),
            scaled(masses[2], cols),
            scaled(masses[3], cols),
            scale,
        )

    def _keys(self, target: tuple) -> list[tuple]:
        """Transport entries whose W make up the kappa of a target: the pair
        itself, a directed edge, or every member pair of an undirected edge."""
        if target[0] == "pair":
            return [target[:3]]
        if self.hg.flavor != UNDIRECTED:
            return [("edge", target[1])]
        vs = self.hg.edges[target[1]].sorted_vertices()
        return [("pair", vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))]

    def _chain(self, key: tuple) -> _Chain:
        """The chain of a pair ``("pair", u, v)`` or edge ``("edge", h)``, made on first use."""
        if key[0] == "edge":
            edge = self.hg.edges[key[1]]
            if len(edge.tail) == 1 and len(edge.head) == 1:
                # The set measures of a one-to-one hyperedge are the pair
                # measures of its ends, so both targets share one entry.
                key = ("pair", *edge.tail, *edge.head)
        chain = self._transports.get(key)
        if chain is None:
            chain = self._transports[key] = _Chain(self._family(key))
        return chain

    def _transport(self, key: tuple, p: int, q: int) -> tuple[int, int]:
        """W at alpha ``p/q`` of a pair ``("pair", u, v)`` or edge ``("edge", h)``.

        Returns ints ``(w, s)`` with ``W = w / (q * s * oracle.scale)``. The
        first request of an entry solves it at its alpha, on the union
        supports of its endpoint measures, and ranges the optimal basis into
        the exact linear piece of W around that alpha. A later alpha on a
        stored piece is read off it; one outside the chain extends the chain
        from its nearer end by dual pivots until a piece covers the alpha.
        """
        chain = self._chain(key)
        for line in chain.lines:
            if line.covers(p, q):
                self.stats.solve_hits += 1
                return line.at(p, q), chain.family.scale
        if chain.lines:
            top = chain.lines[-1]
            upward = top.hi_num * q < p * top.hi_den
            while not (line := self._extend(chain, upward)).covers(p, q):
                pass
        else:
            self.stats.solves += 1
            result = wasserstein(*chain.family.masses(p, q), self.oracle)
            self.stats.pivots += result.pivots
            self.stats.degenerate_pivots += result.degenerate_pivots
            basis = ranged_basis(chain.family, result)
            line = chain.store(basis, upward=True)
        return line.at(p, q), chain.family.scale

    def _extend(self, chain: _Chain, upward: bool) -> LinearPiece:
        """Pivot past the upper or lower end of the chain to the next piece of
        W and return the linear region at that end, grown by the piece.
        Pieces of a single alpha, met where several flows reach zero at once,
        are passed."""
        basis = chain.high if upward else chain.low
        while True:
            basis = dual_pivot(chain.family, basis, upward)
            self.stats.dual_pivots += 1
            if not basis.piece.is_point():
                break
        self.stats.traced_pieces += 1
        return chain.store(basis, upward)

    def _alpha_lo(self, target: tuple, floor: Fraction) -> Fraction:
        """Lower end of the final linear region of kappa for a target solved before.

        That is the largest over the target's transport entries of the lower
        end of the final linear region of their W: a sum of concave terms is
        linear exactly where every term is. Each chain is traced up to 1 and
        down only as far as needed: the value is exact when it exceeds
        ``floor``; otherwise it is some alpha at or below ``floor``.
        """
        fn, fd = floor.numerator, floor.denominator
        num, den = 0, 1
        for key in self._keys(target):
            chain = self._chain(key)
            if chain.lines[-1].hi_num != chain.lines[-1].hi_den:
                self._transport(key, 1, 1)
            while len(chain.lines) == 1 and chain.lines[0].lo_num * fd > fn * chain.lines[0].lo_den:
                self._extend(chain, upward=False)
            final = chain.lines[-1]
            if final.lo_num * den > num * final.lo_den:
                num, den = final.lo_num, final.lo_den
        return Fraction(num, den)

    def breakpoints(self, target: tuple) -> list[Fraction]:
        """Alphas in (0, 1) where ``kappa_alpha`` of the target changes slope, ascending.

        Traces every transport of the target over [0, 1]; there are
        ``len(breakpoints) + 1`` linear parts.
        """
        target = tuple(target)
        self._kappa(target, Fraction(0), "sum")
        self._kappa(target, Fraction(1), "sum")
        return sorted(
            {
                Fraction(line.lo_num, line.lo_den)
                for key in self._keys(target)
                for line in self._chain(key).lines[1:]
            }
        )

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
        defect, den = 0, 1
        for key in self._keys(target):
            w, s = self._transport(key, p, q)
            if den % s:
                grown = math.lcm(den, s)
                defect *= grown // den
                den = grown
            defect += (q * s * oracle.table[key[1]][key[2]] - w) * (den // s)
        return Fraction(defect, den * q * self._length(target[1], variant))

    def _variant_key(self, target: tuple, variant: str) -> str | None:
        return variant if target[0] == "edge" and self.hg.flavor == UNDIRECTED else None

    def limit(self, target: tuple, variant: str = "sum", k_max: int = DEFAULT_K_MAX) -> Limit:
        """Normalized-curvature limit of a target, without sampling any alpha grid.

        The limit is ``g = kappa_alpha / (1-alpha)`` on the final linear
        region ``[alpha_lo, 1]`` of kappa, certified at the first
        ``alpha_k = 1 - 2**-k`` (k >= 2) at or past ``alpha_lo``. Raises
        NoStabilization when that k would exceed ``k_max - 1``, where the
        dyadic rule would stop, or immediately when the target provably
        diverges.
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
        # The first solve of each transport lands where the dyadic rule
        # looked first; its piece mostly reaches 1 and below 3/4 already.
        kappa_2 = self._kappa(target, _ALPHA_2, variant)
        # At alpha=1 the measures of a pair are point masses at its ends, so
        # kappa vanishes there for pairs and undirected hyperedges.
        if target[0] == "edge" and self.hg.flavor != UNDIRECTED:
            kappa_one = self._kappa(target, Fraction(1), variant)
            if kappa_one < 0:
                raise errors.NoStabilization(
                    f"target {target} has curvature {kappa_one} at alpha=1; "
                    "the normalized curve decreases without bound"
                )
            if kappa_one:
                # g is then kappa_one/(1-alpha) minus a chord slope of kappa
                # that concavity keeps from growing: it rises without bound
                # and takes no value twice.
                raise _not_settled(target, k_max)
        # With kappa(1) = 0, g(alpha) is minus the slope of the chord of
        # kappa from alpha to 1: by concavity constant on the final linear
        # region and strictly smaller before it.
        k = _dyadic_index(self._alpha_lo(target, _ALPHA_2))
        if k >= k_max:
            raise _not_settled(target, k_max)
        if k == 2:
            return Limit(lly=kappa_2 * 4, stabilization_alpha=_ALPHA_2)
        a = Fraction(2**k - 1, 2**k)
        return Limit(lly=self._kappa(target, a, variant) / (1 - a), stabilization_alpha=a)

    def report(
        self, target: tuple, variant: str = "sum", grid=None, k_max: int = DEFAULT_K_MAX
    ) -> CurvatureReport:
        """``limit`` of the target plus its curve sampled on ``grid``.

        ``grid`` defaults to ``DEFAULT_ALPHA_GRID``.
        """
        if grid is None or grid is DEFAULT_ALPHA_GRID:
            grid = DEFAULT_ALPHA_GRID  # checked once, not per report
        else:
            grid = tuple(as_alpha(a) for a in grid)
        target = tuple(target)
        found = self.limit(target, variant, k_max)
        samples = []
        normalized = []
        for a in grid:
            k = self._kappa(target, a, variant)
            samples.append((a, k))
            p, q = a.numerator, a.denominator
            if p != q:
                # k / (1 - a), built from ints: 1 - a is (q - p) / q.
                normalized.append((a, Fraction(k.numerator * q, k.denominator * (q - p))))
        return CurvatureReport(
            target=target,
            variant=self._variant_key(target, variant),
            curve=AlphaCurve(samples=tuple(samples), normalized=tuple(normalized)),
            lly=found.lly,
            stabilization_alpha=found.stabilization_alpha,
            alpha_lo=self._alpha_lo(target, Fraction(0)),
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


def curvature_pairs(hg: Hypergraph) -> list[tuple[int, int]]:
    """The vertex pairs (u, v) that carry a curvature, in lexicographic order.

    Undirected: the unordered pairs, u < v. Oriented: the ordered pairs,
    u != v. Directed: none; there curvature lives on hyperedges.
    """
    if hg.flavor != UNDIRECTED and hg.flavor != ORIENTED:
        return []
    n, ordered = hg.n_vertices, hg.flavor == ORIENTED
    return [(u, v) for u in range(n) for v in range(n) if u < v or ordered and u != v]


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
