"""Ollivier-type curvature for vertex pairs and hyperedges, and its Lin-Lu-Yau limit.

Every curvature is a defect sum ``kappa = sum_k (d_k - W_k) / L`` over
transports between two walk measures. A vertex pair has one term with
``d = L = d(u, v)``, which is ``1 - W(mu_u, mu_v) / d(u, v)``; a directed
hyperedge has one term, from its tail-set to its head-set measure, with
``d = L(h)``; an undirected hyperedge has one term per member pair, over
its length variant.

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

Each transport is solved once, just below alpha = 1, where the optimal
basis, ranged, gives the exact W on the final interval ``[lo, 1]`` of
alpha. Dual-simplex pivots trace the pieces below it only as far as a
read reaches. The solves and the pieces are ints. Summing a target's
pieces gives kappa's own int lines, and every answer reads them over
some ``[lo, 1]``: a point value is the first line over ``[alpha, 1]``,
the limit and its certificate come from the final line over ``[3/4, 1]``,
a curve from the lines over ``[min(grid), 1]`` as one int per grid alpha
over a common denominator, and the breakpoints, the last of which is
``alpha_lo``, from the lines over ``[0, 1]``. Every boundary between
kappa's lines is checked to bend it down, so a curve that is not concave
raises rather than certifying a limit. A value becomes a Fraction only
when it leaves the Evaluator; the CLI prints the curve's ints directly.

:class:`Evaluator` does all of this for one hypergraph and remembers every
measure, transport value and limit it computes. A walk measure is named
by its sorted vertex set and direction. Where the flavor is not directed,
a transport and its reverse are one, so on an oriented hypergraph
``kappa(u, v) = kappa(v, u)``. A limit is named by the transports and the
length it reads, so targets that read the same ones share one search. The
module-level functions are one-shot wrappers over a fresh Evaluator.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import errors
from .hypergraph import DIRECTED, ORIENTED, UNDIRECTED, Hypergraph
from .metric import DistanceOracle, scaled_edge_length
from .rational import as_alpha
from .transport import AffineFamily, Basis, LinearPiece, dual_pivot, solve_family
# The Evaluator solves its families with ``solve_family`` and builds its
# measures from ``walk_ends``; ``wasserstein`` and the constructors stay
# importable from this module, where perfbench/tracer.py wraps them.
from .transport import wasserstein  # noqa: F401
from .walk import (  # noqa: F401
    _pair_measure,
    measure_set,
    measure_undirected,
    walk_ends,
)

DEFAULT_ALPHA_GRID = tuple(Fraction(k, 10) for k in range(10)) + (Fraction(99, 100),)
DEFAULT_K_MAX = 24
# The lower end, as ``(num, den)``, of the lines the limit search reads: the
# first dyadic alpha ``1 - 2**-2``, where it certifies kappa's final line.
_LIMIT_LO = (3, 4)


def _sampling_grid(grid) -> tuple[tuple, tuple]:
    """The grid's alphas, each as ``(num, den)``, and their indices in ascending order.

    ``None`` is ``DEFAULT_ALPHA_GRID``; any other alpha is checked by ``as_alpha``.
    """
    if grid is None or grid is DEFAULT_ALPHA_GRID:
        return _DEFAULT_GRID
    alphas = [as_alpha(a) for a in grid]
    ints = tuple((a.numerator, a.denominator) for a in alphas)
    return ints, tuple(sorted(range(len(alphas)), key=alphas.__getitem__))


# Checked and sorted once, not per curve.
_DEFAULT_GRID = _sampling_grid(list(DEFAULT_ALPHA_GRID))


def _dyadic_index(alpha_lo: Fraction) -> int:
    """The least k >= 2 with ``1 - 2**-k >= alpha_lo``, for ``alpha_lo`` in [0, 1)."""
    num, den = alpha_lo.numerator, alpha_lo.denominator
    # 2**k >= den / (den - num) holds exactly when 2**k >= its ceiling.
    return max(2, (-(-den // (den - num)) - 1).bit_length())


_NOT_SETTLED = f"normalized curvature of {{}} did not settle within k <= {DEFAULT_K_MAX}"


def _read_limit(lines: list, den: int) -> Limit:
    """The limit read off kappa's lines over [3/4, 1].

    Every boundary between kappa's lines is a breakpoint, so the final line
    starts at ``max(3/4, alpha_lo)``, and its dyadic index is that of ``alpha_lo``.
    """
    final = lines[-1]
    # kappa(1) is w1 / den. At alpha=1 the measures of a pair are point
    # masses at its ends, so it vanishes for pairs and undirected
    # hyperedges. A directed hyperedge's is at most 0, since every unit of
    # mass pays at least L(h), the least tail-to-head distance.
    if final.w1 < 0:
        raise errors.NoStabilization(
            f"target {{}} has curvature {Fraction(final.w1, den)} at alpha=1; "
            "the normalized curve decreases without bound"
        )
    # With kappa(1) = 0, g(alpha) is minus the slope of the chord of
    # kappa from alpha to 1: by concavity constant, w0 / den, on the
    # final linear region and strictly smaller before it.
    k = _dyadic_index(Fraction(final.lo_num, final.lo_den))
    if k >= DEFAULT_K_MAX:
        raise errors.NoStabilization(_NOT_SETTLED)
    return Limit(lly=Fraction(final.w0, den), stabilization_alpha=Fraction(2**k - 1, 2**k))


def _sample(lines: list, ints: tuple, ascending: tuple) -> list[int]:
    """``line.at(p, q)`` of the line covering each ``(p, q)`` of ``ints``, read off
    ``lines`` (kappa's, over some ``[lo, 1]`` with ``lo`` at most every alpha)
    in one walk over ``ints`` in the ``ascending`` order of their alphas."""
    values = [0] * len(ints)
    walk = iter(lines)
    line = next(walk)
    for k in ascending:
        p, q = ints[k]
        while line.hi_num * q < p * line.hi_den:
            line = next(walk)
        values[k] = line.at(p, q)
    return values


class EvalStats:
    """Work counters of one Evaluator: computations done, memo hits, simplex pivots.

    A solve is the one cold solve of a transport (and of its reverse where
    the flavor is not directed), which yields its final linear piece of
    W(alpha), the one ending at 1; ``pivots`` and ``degenerate_pivots``
    count the primal simplex pivots of those solves.
    Every further piece is traced from the one above it by
    ``dual_pivots``; ``traced_pieces`` counts them. Every answer reads
    kappa's lines over some range of alpha; a solve hit is a term of the
    target whose chain already spanned that range, so that its part of the
    read needed no solve and no pivot.
    Measures count walk measures built (two per vertex set and direction,
    at alpha 0 and 1); a measure hit is a reuse of such a pair.
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


class Limit(namedtuple("Limit", "lly stabilization_alpha")):
    """LLY limit of one target and the alpha at which it was certified."""

    __slots__ = ()


class _Chain:
    """The linear regions found so far of W(alpha) between two walk measures.

    ``lines`` holds them in alpha order as pieces, each the union of the
    neighbouring pieces traced on one line; they are contiguous, start
    with the final piece of the cold solve, which ends at alpha = 1, and
    grow only downward, so every boundary between two of them is a
    breakpoint of W. ``low`` is the optimal basis at their lower end, from
    which the chain is extended by dual pivots, until the lines reach 0
    and it is dropped.
    """

    __slots__ = ("family", "lines", "low")

    def __init__(self, family: AffineFamily):
        self.family = family
        self.lines: list[LinearPiece] = []
        self.low: Basis | None = None

    def store(self, basis: Basis) -> None:
        """Add the piece of ``basis`` below the lines found so far.

        A piece on the line of the lowest region, met where a pivot kept
        every potential, widens that region; any other piece starts a new one.
        """
        lines, piece = self.lines, basis.piece
        if lines and (lines[0].w0, lines[0].w1) == (piece.w0, piece.w1):
            lines[0] = piece._replace(hi_num=lines[0].hi_num, hi_den=lines[0].hi_den)
        else:
            lines.insert(0, piece)
        self.low = None if piece.lo_num == 0 else basis

    def spans(self, lo: tuple) -> bool:
        """Whether the lines found so far reach down to ``lo``, an alpha as ``(num, den)``."""
        lines = self.lines
        return bool(lines) and lines[0].lo_num * lo[1] <= lo[0] * lines[0].lo_den


class Evaluator:
    """Curvature of one hypergraph, each measure, transport and limit computed once.

    A target's defect-sum terms and length are resolved once per target and
    variant where it matters. Walk measures are memoised at alpha 0 and 1 by
    (sorted vertex set, direction); the measure at any other alpha is their
    affine blend. Transport values are memoised per pair of walk measures,
    in sorted order where the flavor is not directed (see ``_chain``), as a
    chain of exact linear pieces of W(alpha): one int solve of the family
    (``transport.solve_family``) just below 1 finds the final one, and dual
    pivots trace the others down as far as requested. Every answer, a
    point value, a limit, a curve or the breakpoints, is read off kappa's
    int lines over some ``[lo, 1]``, which ``_merged`` sums from the
    chains. Limits are memoised by the terms and length that ``_target``
    resolves, so an oriented pair and its reverse, or a two-vertex
    hyperedge and its pair, share one search. A limit that does not
    stabilize is remembered and raised again, naming the target asked for.
    Build one per hypergraph and oracle and drop it with them: the memo is
    never shared between runs.
    """

    def __init__(self, hg: Hypergraph, oracle: DistanceOracle):
        self.hg = hg
        self.oracle = oracle
        self.stats = EvalStats()
        self._measures: dict[tuple, list] = {}
        self._transports: dict[tuple, _Chain] = {}
        self._targets: dict[tuple, tuple[tuple, int]] = {}
        self._limits: dict[tuple, Limit | errors.NoStabilization] = {}

    def _ends(self, key: tuple):
        """Int masses at alpha 0 and 1 of the walk measure ``key = (part, direction)``.

        Every walk measure is affine in alpha, so the measure at any alpha is
        ``(1-alpha)*mu0 + alpha*mu1`` of these two.
        """
        ends = self._measures.get(key)
        if ends is not None:
            self.stats.measure_hits += 1
            return ends
        self.stats.measures += 2
        ends = self._measures[key] = walk_ends(self.hg, *key)
        return ends

    def out_spread(self, v: int):
        """``walk.spread(hg, "out", v)``: the out-walk of v at alpha 0, from
        the memoised ends that the pair transports at v share.

        The bounds ledger reads it for every pair and hyperedge head at v.
        """
        return self._ends(((v,), "out"))[0]

    def _chain(self, tail: tuple, head: tuple) -> _Chain:
        """The chain of the transport from the in-walk of vertex set ``tail``
        to the out-walk of ``head``, each a sorted tuple, made on first use.

        Directed, its key is ``((tail, "in"), (head, "out"))``. Otherwise
        both walks are out-walks (oriented, reversal closure makes each
        vertex's two spreads equal) and distances are symmetric, so
        ``W(mu, nu) = W(nu, mu)``: the key is the sorted pair of ``_ends``
        keys, and a transport and its reverse are one chain. The family
        holds the key's union supports and int endpoint masses. Each end
        comes in lowest terms, so the lcm of the four denominators is the
        scale that ``Fraction`` masses would bring.
        """
        if self.hg.flavor == DIRECTED:
            key = ((tail, "in"), (head, "out"))
        else:
            key = tuple(sorted(((tail, "out"), (head, "out"))))
        chain = self._transports.get(key)
        if chain is not None:
            return chain
        ends = self._ends(key[0]) + self._ends(key[1])
        scale = math.lcm(*[den for _mass, den in ends])
        (mu0, d0), (mu1, d1), (nu0, e0), (nu1, e1) = ends
        rows = sorted(mu0.keys() | mu1.keys())
        cols = sorted(nu0.keys() | nu1.keys())

        def scaled(mass, den, support):
            factor = scale // den
            return [mass.get(v, 0) * factor for v in support]

        family = AffineFamily(
            rows,
            cols,
            scaled(mu0, d0, rows),
            scaled(mu1, d1, rows),
            scaled(nu0, e0, cols),
            scaled(nu1, e1, cols),
            scale,
        )
        chain = self._transports[key] = _Chain(family)
        return chain

    def _target(self, target: tuple, variant: str) -> tuple[tuple, int]:
        """The terms ``(chain, d)`` and the length L of a target's defect sum.

        ``d`` and L are distances times ``oracle.scale``. ``variant`` is the
        length normalizer of undirected hyperedges and is ignored elsewhere.
        """
        kind = target[0]
        undirected_edge = kind == "edge" and self.hg.flavor == UNDIRECTED
        key = (target, variant if undirected_edge else None)
        found = self._targets.get(key)
        if found is not None:
            return found
        hg, oracle = self.hg, self.oracle
        table = oracle.table
        if kind == "pair":
            u, v = target[1], target[2]
            if u == v:
                raise errors.SamePair(
                    f"pair curvature needs two distinct vertices, got ({u}, {v})"
                )
            # Undirected and oriented distances are always symmetric.
            if not oracle.symmetric:
                raise errors.UnsupportedFlavor(
                    "pair curvature needs the undirected or oriented flavor, "
                    "or a directed instance with symmetric quasi-distance"
                )
            length = table[u][v]
            terms = ((self._chain((u,), (v,)), length),)
        elif kind != "edge":
            raise ValueError(f"unknown target kind {kind!r}")
        elif undirected_edge:
            vs = hg.edges[target[1]].sorted_vertices()
            terms = tuple(
                (self._chain((x,), (y,)), table[x][y])
                for i, x in enumerate(vs)
                for y in vs[i + 1 :]
            )
            length = scaled_edge_length(hg, oracle, target[1], variant)
        else:
            edge = hg.edges[target[1]]
            length = scaled_edge_length(hg, oracle, target[1], "min")
            terms = ((self._chain(edge.sorted_tail(), edge.sorted_head()), length),)
        found = self._targets[key] = (terms, length)
        return found

    def _reach(self, chain: _Chain, lo: tuple) -> None:
        """Extend the chain until its lines reach down to ``lo``, given as ``(num, den)``.

        The first request of a chain solves it at ``b* = D/(D+1)``, on the
        union supports of its endpoint measures, where ``D = sum(mu0) +
        sum(mu1)`` is the family's total int mass, ``2 * scale`` for walk
        measures. The optimal basis there ranges into W's final piece
        ``[lo, 1]``, with ``lo < b* < 1``. Each basic flow
        ``(1-b)*s0 + b*s1`` is the net supply of a subtree, so
        ``|s0 - s1| <= D``. A flow that falls to 0 before 1 has
        ``s1 <= -1`` and does so at ``s0/(s0-s1) <= 1 - 1/D < b*``, where
        it would be negative; so no basic flow falls, and the piece ends
        at 1. A flow that rises from below 0 crosses 0 at a ratio whose
        denominator is at most D, never at ``b*``, whose lowest-terms
        denominator is D + 1; so the piece starts below ``b*``. Every
        later request extends the chain downward from ``low``.
        """
        if not chain.lines:
            family = chain.family
            total = sum(family.mu0) + sum(family.mu1)
            self.stats.solves += 1
            basis, pivots, degenerate = solve_family(family, total, total + 1, self.oracle.table)
            self.stats.pivots += pivots
            self.stats.degenerate_pivots += degenerate
            chain.store(basis)
        while not chain.spans(lo):
            self._extend(chain)

    def _extend(self, chain: _Chain) -> None:
        """Pivot from ``chain.low`` past the lower end of its piece to the next
        piece of W down and store it. Pieces of a single alpha, met where
        several flows reach zero at once, are passed."""
        basis = chain.low
        while True:
            basis = dual_pivot(chain.family, basis)
            self.stats.dual_pivots += 1
            if not basis.piece.is_point():
                break
        self.stats.traced_pieces += 1
        chain.store(basis)

    def breakpoints(self, target: tuple) -> list[Fraction]:
        """Alphas in (0, 1) where ``kappa_alpha`` of the target changes slope, ascending.

        They are the boundaries between kappa's lines over [0, 1]; there are
        ``len(breakpoints) + 1`` linear parts.
        """
        lines, _den = self._merged(*self._target(tuple(target), "sum"), (0, 1))
        return [Fraction(line.lo_num, line.lo_den) for line in lines[1:]]

    def kappa(self, target: tuple, alpha, variant: str = "sum"):
        """``kappa_alpha`` of a ``("pair", u, v)`` or ``("edge", h)`` target.

        ``variant`` is the length normalizer of undirected hyperedges and is
        ignored elsewhere.
        """
        alpha = as_alpha(alpha)
        p, q = alpha.numerator, alpha.denominator
        lines, den = self._merged(*self._target(tuple(target), variant), (p, q))
        return Fraction(lines[0].at(p, q), q * den)

    def limit(self, target: tuple, variant: str = "sum") -> Limit:
        """Normalized-curvature limit of a target, without sampling any alpha grid.

        The limit is ``g = kappa_alpha / (1-alpha)`` on the final linear
        region ``[alpha_lo, 1]`` of kappa, certified at the first
        ``alpha_k = 1 - 2**-k`` (k >= 2) at or past ``alpha_lo``. Raises
        NoStabilization when that k would reach ``DEFAULT_K_MAX``, where the
        dyadic rule would stop, or immediately when the target provably
        diverges. The search is memoised by the terms and length the target
        reads, and a failure is raised again naming the target asked for.
        """
        target = tuple(target)
        key = self._target(target, variant)
        found = self._limits.get(key)
        if found is None:
            self.stats.limits += 1
            try:
                found = _read_limit(*self._merged(*key, _LIMIT_LO))
            except errors.NoStabilization as exc:
                found = exc
            self._limits[key] = found
        else:
            self.stats.limit_hits += 1
        if isinstance(found, errors.NoStabilization):
            raise found.named(target)
        return found

    def curve_ints(self, target: tuple, variant: str = "sum", grid=None) -> tuple[list, int]:
        """kappa of the target at each alpha of ``grid``, as ints over one denominator.

        Returns ``(values, den)``: kappa at ``grid[k] = p/q`` (lowest terms)
        is ``values[k] / (q * den)``, and ``kappa / (1 - p/q)`` is
        ``values[k] / ((q - p) * den)``. ``grid`` defaults to
        ``DEFAULT_ALPHA_GRID``. The values are read off kappa's lines over
        ``[min(grid), 1]`` in one walk over the grid in ascending order.
        """
        ints, ascending = _sampling_grid(grid)
        lo = ints[ascending[0]] if ints else (1, 1)
        lines, den = self._merged(*self._target(tuple(target), variant), lo)
        return _sample(lines, ints, ascending), den

    def _merged(self, terms: tuple, length: int, lo: tuple) -> tuple[list, int]:
        """kappa's linear regions over ``[lo, 1]``, summed from its terms' chains.

        ``lo`` is an alpha as ``(num, den)``; each chain is first extended
        down to it, and one that reaches it already counts a solve hit.
        Over the lcm S of the chains' mass scales, a region's int line is
        the sum over the terms of ``S*d - w*(S // s)`` at each end, since
        ``kappa = sum_k (d_k - W_k) / L``. The regions end where any term's
        line ends; returns them and ``S * L``, so that kappa at ``p/q`` in a
        region is ``region.at(p, q) / (q * S * L)``.

        A chain stores each maximal linear region of its W as one line, so
        every boundary of a term is a breakpoint of its W; each term is
        concave, so every boundary between two returned regions is a
        breakpoint of kappa. That concavity is checked once per region: its
        slope ``k1 - k0`` must not exceed the one before it, or NotConcave
        is raised.
        """
        for chain, _d in terms:
            if chain.spans(lo):
                self.stats.solve_hits += 1
            else:
                self._reach(chain, lo)
        lo_num, lo_den = lo
        scale = math.lcm(*[chain.family.scale for chain, _d in terms])
        k0 = k1 = 0
        cursors = []
        for chain, d in terms:
            lines = chain.lines
            t = 0
            # The first line that reaches past lo, or the last.
            while t + 1 < len(lines) and lines[t].hi_num * lo_den <= lo_num * lines[t].hi_den:
                t += 1
            factor = scale // chain.family.scale
            k0 += scale * d - lines[t].w0 * factor
            k1 += scale * d - lines[t].w1 * factor
            cursors.append([lines, t, factor])
        merged = []
        while True:
            end_num, end_den = 1, 1
            for lines, t, _factor in cursors:
                line = lines[t]
                if line.hi_num * end_den < end_num * line.hi_den:
                    end_num, end_den = line.hi_num, line.hi_den
            if merged and k1 - k0 > merged[-1].w1 - merged[-1].w0:
                raise errors.NotConcave(
                    f"kappa is not concave in alpha: its slope rises at "
                    f"{Fraction(lo_num, lo_den)}, so no limit is certified"
                )
            merged.append(LinearPiece(lo_num, lo_den, end_num, end_den, k0, k1))
            if end_num == end_den:
                return merged, scale * length
            for cursor in cursors:
                lines, t, factor = cursor
                line = lines[t]
                if line.hi_num * end_den == end_num * line.hi_den:
                    after = lines[t + 1]
                    k0 += (line.w0 - after.w0) * factor
                    k1 += (line.w1 - after.w1) * factor
                    cursor[1] = t + 1
            lo_num, lo_den = end_num, end_den


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


def lly_limit(hg: Hypergraph, oracle: DistanceOracle, target: tuple, variant: str = "sum") -> Limit:
    """Normalized-curvature limit of a ``("pair", u, v)`` or ``("edge", h)`` target.

    This is :meth:`Evaluator.limit` on a fresh Evaluator.
    """
    return Evaluator(hg, oracle).limit(target, variant)


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
