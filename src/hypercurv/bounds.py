"""Machine checks of the curvature inequalities, reported as verdict data.

Every check compares two exactly computed rationals and returns a
:class:`BoundVerdict` instead of asserting, so a full ledger can be
emitted even when a hypothesis fails. ``holds is None`` marks a verdict
whose hypothesis is not met (not applicable), which is distinct from a
violated inequality.

Every upper bound on ``kappa_alpha`` has the form ``(1 - alpha) * N / D``.
The partition constants and each bound's ``N`` and ``D`` are computed on
ints: the distances of ``oracle.table``, the int edge weights and the int
walk spreads of :mod:`hypercurv.walk`. One helper turns them, with
``alpha = p/q``, into the side ``Fraction((q - p) * N, q * D)``. The
Bonnet-Myers and vertex-count sides divide by limit curvatures and stay
on Fractions.

Each check reads the instance, its distance oracle and every curvature
from ``ev``, the :class:`~hypercurv.curvature.Evaluator` of the instance,
so a ledger of many checks shares measures, transports and limits. Limits
are read without sampling any alpha curve. :func:`verdict_ledger` runs
every check that applies to an instance, on the pairs of
:func:`~hypercurv.curvature.curvature_pairs`; it is the ledger that
``hypercurv bounds`` prints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import errors
# The kappa_alpha_* and lly_limit names stay importable from this module,
# where perfbench/tracer.py wraps them; the checks evaluate through ``ev``.
from .curvature import (  # noqa: F401
    Evaluator,
    curvature_pairs,
    kappa_alpha_edge_directed,
    kappa_alpha_edge_undirected,
    kappa_alpha_pair,
    lly_limit,
    well_transported_pairs,
)
from .hypergraph import ORIENTED, UNDIRECTED, Hypergraph
from .metric import (
    DistanceOracle,
    NeighborhoodPartition,
    edge_length,
    partition_neighborhood,
    scaled_edge_length,
)
from .rational import as_alpha


class BoundVerdict(NamedTuple):
    """Outcome of one inequality check.

    ``holds`` is True/False for an applicable check (lhs <= rhs compared
    exactly) and None when the hypothesis fails; ``witness`` names the
    offending target or the unmet hypothesis.
    """

    name: str
    lhs: Fraction | None
    rhs: Fraction | None
    holds: bool | None
    target: str = ""
    witness: str | None = None

    @property
    def applicable(self) -> bool:
        return self.holds is not None


class HeadVertexData(NamedTuple):
    """Partition data and gap constants of one head vertex."""

    vertex: int
    partition: NeighborhoodPartition
    c_exact: Fraction
    c_estimate: Fraction


class DirectedBoundData(NamedTuple):
    """Everything entering the directed hyperedge upper bound."""

    per_head: tuple[HeadVertexData, ...]
    diameter: Fraction
    head_size: int


def _verdict(name, lhs, rhs, target="", witness_on_fail="") -> BoundVerdict:
    holds = lhs <= rhs
    return BoundVerdict(
        name=name,
        lhs=lhs,
        rhs=rhs,
        holds=holds,
        target=target,
        witness=None if holds else (witness_on_fail or target),
    )


def _skip(name, target, why) -> BoundVerdict:
    return BoundVerdict(name=name, lhs=None, rhs=None, holds=None, target=target, witness=why)


def _on_scale(x: Fraction, scale: int) -> int:
    """``x * scale`` for a rational whose denominator divides ``scale``."""
    return x.numerator * (scale // x.denominator)


def _side(a: Fraction, num: int, den: int) -> Fraction:
    """The upper bound ``(1 - a) * num / den`` on ``kappa_a``, from its ints."""
    p, q = a.numerator, a.denominator
    return Fraction((q - p) * num, q * den)


def _weight_side(hg: Hypergraph, oracle: DistanceOracle, a: Fraction, length: int) -> Fraction:
    """``(1 - a) * 2 max w / d``, with ``d = length / oracle.scale``."""
    top = hg.max_weight()
    return _side(a, 2 * top.numerator * oracle.scale, top.denominator * length)


class Labels:
    """Optional display names for verdict targets; ids by default."""

    def __init__(self, vertex=None, edge=None):
        self._vertex = vertex
        self._edge = edge

    def pair(self, u: int, v: int) -> str:
        if self._vertex:
            return f"pair ({self._vertex[u]},{self._vertex[v]})"
        return f"pair ({u},{v})"

    def edge(self, e: int) -> str:
        return f"edge {self._edge[e]}" if self._edge else f"edge {e}"


DEFAULT_LABELS = Labels()


# -- undirected upper bounds ---------------------------------------------


def check_pair_upper_bound(
    ev: Evaluator, u: int, v: int, alpha, labels: Labels = DEFAULT_LABELS
) -> list[BoundVerdict]:
    """Upper bounds on pair curvature from edge weights.

    Returns the coarse form with the global maximum weight and the sharper
    form with the two per-vertex maxima.
    """
    hg, oracle = ev.hg, ev.oracle
    if hg.flavor != UNDIRECTED:
        raise errors.UnsupportedFlavor("pair upper bounds here are undirected; see the oriented check")
    a = as_alpha(alpha)
    kappa = ev.kappa(("pair", u, v), a)
    d_u_v = oracle._scaled(u, v)
    target = f"{labels.pair(u, v)} alpha={a}"
    weights, w_scale = hg.scaled_weights
    local = max(weights[e] for e in hg.edges_containing(u)) + max(
        weights[e] for e in hg.edges_containing(v)
    )
    return [
        _verdict("pair-upper-global", kappa, _weight_side(hg, oracle, a, d_u_v), target),
        _verdict(
            "pair-upper-local", kappa, _side(a, local * oracle.scale, w_scale * d_u_v), target
        ),
    ]


def check_edge_upper_bound(
    ev: Evaluator, edge_index: int, alpha, variant: str = "sum", labels: Labels = DEFAULT_LABELS
) -> BoundVerdict:
    """Variant-matched upper bound on hyperedge curvature.

    Undirected: the minimum-length normalizer gets the coarse
    ``(k-1) * k * max w`` numerator, sum and max get the sharper
    per-member-maxima numerator. Oriented (or symmetric directed):
    ``2 * max w`` over the tail-to-head length.
    """
    hg, oracle = ev.hg, ev.oracle
    a = as_alpha(alpha)
    target = f"{labels.edge(edge_index)} alpha={a} variant={variant}"
    if hg.flavor == UNDIRECTED:
        kappa = ev.kappa(("edge", edge_index), a, variant)
        edge = hg.edges[edge_index]
        k = len(edge)
        length = scaled_edge_length(hg, oracle, edge_index, variant)
        if variant == "min":
            top = hg.max_weight()
            num, den = (k - 1) * k * top.numerator, top.denominator
        else:
            weights, w_scale = hg.scaled_weights
            per_member = sum(max(weights[e] for e in hg.edges_containing(x)) for x in edge.vertices)
            num, den = (k - 1) * per_member, w_scale
        return _verdict("edge-upper", kappa, _side(a, num * oracle.scale, den * length), target)
    if oracle.symmetric:
        if variant != "min":
            raise errors.UnsupportedVariant("directed hyperedges support the min length only")
        kappa = ev.kappa(("edge", edge_index), a)
        length = scaled_edge_length(hg, oracle, edge_index, "min")
        return _verdict("edge-upper", kappa, _weight_side(hg, oracle, a, length), target)
    raise errors.UnsupportedFlavor(
        "asymmetric directed hyperedges use check_directed_edge_bound"
    )


# -- directed partition bound ----------------------------------------------


def check_directed_edge_bound(
    ev: Evaluator, edge_index: int, alpha, labels: Labels = DEFAULT_LABELS
) -> tuple[BoundVerdict, DirectedBoundData]:
    """Partition-based upper bound on directed hyperedge curvature.

    For each head vertex the out-neighborhood is split by distance from
    the tail set; the gap constants weight the mass drifting closer or
    farther, and the diameter absorbs the tail-side spread. The verdict
    compares ``kappa_alpha(h) * L(h) <= (1-alpha) * (sum_j C_j / m + diam)``
    with the exact per-head constants; the looser closed-form estimate of
    each constant is reported alongside as data.

    The drifting mass of a neighbour z of head vertex y is the weight of
    the hyperedges carrying y to z, each over its head size, divided by
    ``out_weight(y)``: the mass of z in one out-walk step from y. The
    constants and both sides are computed on ints, and each becomes one
    Fraction.
    """
    hg, oracle = ev.hg, ev.oracle
    if hg.flavor == UNDIRECTED:
        raise errors.UnsupportedFlavor("the partition bound applies to directed flavors")
    a = as_alpha(alpha)
    edge = hg.edges[edge_index]
    heads = edge.sorted_head()
    m = len(heads)
    ref = edge.sorted_tail()
    w_ratio = hg.max_weight() / hg.min_weight()
    b_max = hg.max_head_size()
    diam = oracle.diameter()
    scale = oracle.scale
    estimate_den = scale * w_ratio.denominator * b_max

    per_head = []
    # sum_j C_j, as c_num / (scale * c_den)
    c_num, c_den = 0, 1
    for y in heads:
        # The out-walk's support is y's out-neighborhood.
        walk, den = ev.out_spread(y)
        part = partition_neighborhood(hg, oracle, ref, y, walk)
        exact = 0  # C_j * scale * den
        estimate = 0  # the estimate of C_j, times estimate_den
        if part.closer:
            c1 = _on_scale(part.c1, scale)
            exact += c1 * sum(walk[z] for z in part.closer)
            estimate += c1 * len(part.closer) * w_ratio.numerator * b_max
        if part.farther:
            c2 = _on_scale(part.c2, scale)
            exact -= c2 * sum(walk[z] for z in part.farther)
            estimate -= c2 * len(part.farther) * w_ratio.denominator
        per_head.append(
            HeadVertexData(
                vertex=y,
                partition=part,
                c_exact=Fraction(exact, scale * den),
                c_estimate=Fraction(estimate, estimate_den),
            )
        )
        grown = math.lcm(c_den, den)
        c_num = c_num * (grown // c_den) + exact * (grown // den)
        c_den = grown

    length = scaled_edge_length(hg, oracle, edge_index, "min")
    kappa = ev.kappa(("edge", edge_index), a)
    lhs = Fraction(kappa.numerator * length, kappa.denominator * scale)
    # (1 - a) * (c_num / (scale * c_den * m) + diam)
    rhs = _side(a, c_num + _on_scale(diam, scale) * c_den * m, scale * c_den * m)
    verdict = _verdict("directed-edge-upper", lhs, rhs, f"{labels.edge(edge_index)} alpha={a}")
    return verdict, DirectedBoundData(per_head=tuple(per_head), diameter=diam, head_size=m)


# -- positive curvature: distance and size bounds ---------------------------


def _in_edge_pairs(hg: Hypergraph) -> list[tuple[int, int]]:
    pairs = set()
    for edge in hg.edges:
        for u in edge.tail:
            for v in edge.head:
                pairs.add((u, v))
    return sorted(pairs)


def _least_limit(ev: Evaluator, pairs: list[tuple[int, int]]) -> Fraction | None:
    """The least limit curvature over the vertex pairs, None if there are none."""
    return min((ev.limit(("pair", u, v)).lly for u, v in pairs), default=None)


def check_bonnet_myers(ev: Evaluator, labels: Labels = DEFAULT_LABELS) -> list[BoundVerdict]:
    """Distance and diameter bounds implied by positive limit curvature.

    Undirected: every pair with positive limit curvature obeys
    ``d(u, v) <= 2 max w / kappa(u, v)``; when every well-transported pair
    has curvature at least some positive floor, the diameter obeys the
    same bound with that floor. Oriented (or symmetric directed): the
    hyperedge length takes the pair role, and the diameter clause uses the
    floor over tail-to-head vertex pairs.
    """
    hg, oracle = ev.hg, ev.oracle
    verdicts: list[BoundVerdict] = []
    two_max = 2 * hg.max_weight()
    if hg.flavor == UNDIRECTED:
        for u, v in curvature_pairs(hg):
            kappa = ev.limit(("pair", u, v)).lly
            target = labels.pair(u, v)
            if kappa > 0:
                verdicts.append(_verdict("bm-pair", oracle.d(u, v), two_max / kappa, target))
            else:
                verdicts.append(_skip("bm-pair", target, f"kappa={kappa} not positive"))
        floor_pairs = [(u, v) for u, v, _e in well_transported_pairs(hg, oracle)]
        floor_of = "well-transported"
    elif not oracle.symmetric:
        return [_skip("bonnet-myers", "instance", "asymmetric quasi-distance")]
    else:
        for e in range(hg.n_edges):
            target = labels.edge(e)
            try:
                kappa = ev.limit(("edge", e)).lly
            except errors.NoStabilization:
                verdicts.append(_skip("bm-edge", target, "normalized curvature diverges"))
                continue
            if kappa > 0:
                length = edge_length(hg, oracle, e, "min").value
                verdicts.append(_verdict("bm-edge", length, two_max / kappa, target))
            else:
                verdicts.append(_skip("bm-edge", target, f"kappa={kappa} not positive"))
        floor_pairs, floor_of = _in_edge_pairs(hg), "tail-to-head"

    floor = _least_limit(ev, floor_pairs)
    if floor is not None and floor > 0:
        verdicts.append(
            _verdict("bm-diameter", oracle.diameter(), two_max / floor, f"floor {floor}")
        )
    else:
        verdicts.append(_skip("bm-diameter", "diameter", f"{floor_of} floor {floor}"))
    return verdicts


def check_pair_bound_oriented(
    ev: Evaluator, u: int, v: int, alpha, labels: Labels = DEFAULT_LABELS
) -> list[BoundVerdict]:
    """Upper bounds on oriented pair curvature.

    Returns the unit-weight partition bound, checked at the given alpha and
    at the limit, then the weighted ``2 max w / d`` bound. With non-unit
    weights the partition bound is a single not-applicable verdict.
    """
    hg, oracle = ev.hg, ev.oracle
    if hg.flavor != ORIENTED:
        raise errors.UnsupportedFlavor("oriented pair bounds need the oriented flavor")
    a = as_alpha(alpha)
    d_u_v = oracle._scaled(u, v)
    kappa_a = ev.kappa(("pair", u, v), a)
    target = f"{labels.pair(u, v)} alpha={a}"
    verdicts = []
    if not hg.is_unit_weight():
        verdicts.append(_skip("oriented-pair-upper-unit", target, "NonUnitWeights"))
    else:
        # The out-walk of v is a one-step walk, so its support is the
        # out-neighborhood that the partition splits.
        walk, den = ev.out_spread(v)
        part = partition_neighborhood(hg, oracle, u, v, walk)
        # The closer-class count only caps the drifting mass when no
        # closer neighbor is reachable through several hyperedges at
        # once (spread weight above 1); otherwise the inequality has
        # no backing and the verdict is reported inapplicable. With unit
        # weights out_weight(v) is deg_out(v), so the spread weight of z,
        # the total of 1/|head| over the hyperedges carrying v to z, is
        # its out-walk mass walk[z] / den times deg_out(v).
        deg = hg.deg_out(v)
        overloaded = sorted(z for z in part.closer if walk[z] * deg > den)
        if overloaded:
            why = f"closer neighbors {overloaded} multiply covered (spread > 1)"
            verdicts.append(_skip("oriented-pair-upper-unit", target, why))
            verdicts.append(_skip("oriented-pair-upper-unit-lly", labels.pair(u, v), why))
        else:
            b_h = hg.max_head_size()
            # (1 + gap / deg) / d with gap = |closer| - |farther| / b_h
            bound_num = (b_h * deg + len(part.closer) * b_h - len(part.farther)) * oracle.scale
            bound_den = b_h * deg * d_u_v
            rhs = _side(a, bound_num, bound_den)
            verdicts.append(_verdict("oriented-pair-upper-unit", kappa_a, rhs, target))
            kappa_lim = ev.limit(("pair", u, v)).lly
            bound = Fraction(bound_num, bound_den)
            verdicts.append(
                _verdict("oriented-pair-upper-unit-lly", kappa_lim, bound, labels.pair(u, v))
            )
    rhs = _weight_side(hg, oracle, a, d_u_v)
    verdicts.append(_verdict("oriented-pair-upper-weight", kappa_a, rhs, target))
    return verdicts


def verdict_ledger(
    ev: Evaluator, alpha, variant: str = "sum", labels: Labels = DEFAULT_LABELS
) -> list[BoundVerdict]:
    """Every verdict that applies to the instance, in a fixed order.

    Undirected: both pair upper bounds on each curvature pair, then the
    ``variant`` upper bound on each hyperedge. Directed and oriented: the
    partition bound on each hyperedge, with the ``min`` upper bound where
    the quasi-distance is symmetric; oriented adds the pair bounds on each
    curvature pair and the vertex-count bound (unit weights only). Last,
    Bonnet-Myers, which reads only pair and directed hyperedge limits, so
    ``variant`` does not change it. Every check reads the instance and its
    curvatures from ``ev``, so they share one memo.
    """
    # The checks are looked up in this module's globals at call time, where
    # perfbench/tracer.py replaces them with timed wrappers.
    hg = ev.hg
    ledger: list[BoundVerdict] = []
    if hg.flavor == UNDIRECTED:
        for u, v in curvature_pairs(hg):
            ledger.extend(check_pair_upper_bound(ev, u, v, alpha, labels))
        for e in range(hg.n_edges):
            ledger.append(check_edge_upper_bound(ev, e, alpha, variant, labels))
    else:
        for e in range(hg.n_edges):
            ledger.append(check_directed_edge_bound(ev, e, alpha, labels)[0])
            if ev.oracle.symmetric:
                ledger.append(check_edge_upper_bound(ev, e, alpha, "min", labels))
        if hg.flavor == ORIENTED:
            for u, v in curvature_pairs(hg):
                ledger.extend(check_pair_bound_oriented(ev, u, v, alpha, labels))
            if hg.is_unit_weight():
                ledger.append(check_vertex_count(ev))
            else:
                ledger.append(_skip("vertex-count", "instance", "NonUnitWeights"))
    ledger.extend(check_bonnet_myers(ev, labels))
    return ledger


# Terms of the vertex-count sum evaluated at most. The sum has floor(2/kappa0)
# terms over ever longer integers, so a tiny floor would take seconds to
# minutes; above the cap the bound is reported not applicable instead.
VERTEX_COUNT_MAX_TERMS = 64


def vertex_count_bound(delta: int, b_h: int, kappa0: Fraction) -> Fraction:
    """Size bound ``1 + sum_k Delta^k prod_i (B/(1+B)) (1+B-i*kappa0)``.

    The sum runs to ``floor(2/kappa0)``; the k=1 product is empty. Raises
    HypothesisNotMet when that is more than ``VERTEX_COUNT_MAX_TERMS`` terms.
    """
    k_max = math.floor(Fraction(2) / kappa0)
    if k_max > VERTEX_COUNT_MAX_TERMS:
        raise errors.HypothesisNotMet(
            f"{k_max} terms for floor {kappa0} exceed the cap of {VERTEX_COUNT_MAX_TERMS}"
        )
    total = Fraction(1)
    prod = Fraction(1)
    for k in range(1, k_max + 1):
        if k > 1:
            prod *= Fraction(b_h, 1 + b_h) * (1 + b_h - (k - 1) * kappa0)
        total += Fraction(delta) ** k * prod
    return total


def check_vertex_count(ev: Evaluator, kappa0: Fraction | None = None) -> BoundVerdict:
    """Vertex-count bound for unit-weight oriented instances with a curvature floor.

    ``kappa0`` defaults to the computed minimum limit curvature over
    tail-to-head vertex pairs; the check is then self-contained. An
    explicit floor is verified first and raising on violation keeps the
    bound from being evaluated vacuously.
    """
    hg = ev.hg
    if hg.flavor != ORIENTED:
        raise errors.UnsupportedFlavor("the vertex-count bound needs the oriented flavor")
    if not hg.is_unit_weight():
        raise errors.NonUnitWeights("the vertex-count bound needs unit weights")
    observed = _least_limit(ev, _in_edge_pairs(hg))
    if kappa0 is None:
        kappa0 = observed
    elif observed < kappa0:
        raise errors.HypothesisNotMet(
            f"asserted floor {kappa0} exceeds the observed minimum {observed}"
        )
    if kappa0 <= 0:
        return _skip("vertex-count", "instance", f"curvature floor {kappa0} not positive")
    try:
        bound = vertex_count_bound(hg.max_degree(), hg.max_head_size(), kappa0)
    except errors.HypothesisNotMet as exc:
        return _skip("vertex-count", "instance", str(exc))
    return _verdict("vertex-count", Fraction(hg.n_vertices), bound, f"floor {kappa0}")
