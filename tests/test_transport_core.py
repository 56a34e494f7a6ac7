"""The integer transport core against the Fraction simplex it replaced.

The core starts from a least-cost basis and the reference from the
north-west corner, so the two may end on different optimal bases of a
degenerate problem. On every instance the core must reach the reference's
exact value, on a basis that is optimal on its own terms: a spanning tree
of ``nr + nc - 1`` cells whose flows are nonnegative and meet every supply
and demand, whose cells are tight under the row and column duals, and
under which no cell has a negative reduced cost. The ranging of an
optimal basis into a linear piece of W is checked against fresh solves
along the whole affine family, and explicit zero masses against the same
maps without them.
"""

from __future__ import annotations

import json
import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercurv import (
    DistanceOracle,
    Evaluator,
    all_pairs_distances,
    build,
    curvature_pairs,
    errors,
    measure_undirected,
    serialize_document,
    wasserstein,
)
from hypercurv import curvature as curvature_mod
from hypercurv.cli import main
from hypercurv.hypergraph import ORIENTED, UNDIRECTED
from hypercurv.transport import (
    AffineFamily,
    _as_ints,
    _cell,
    dual_pivot,
    solve_family,
)

from conftest import (
    directed_corpus,
    named_document,
    oriented_corpus,
    random_directed,
    random_oriented_unit,
    random_undirected,
    undirected_corpus,
)
from oracles import (
    brute_wasserstein,
    coupling,
    dual_potential,
    dual_value,
    lipschitz,
    lp_wasserstein,
    marginals,
    reference_family,
    reference_transportation_simplex,
)


@contextmanager
def _deadline(seconds):
    """Fail instead of hanging when a broken pivot rule cycles forever."""

    def expire(_signum, _frame):
        raise AssertionError(f"transport core still pivoting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _core_in_fractions(supply, demand, cost):
    """Run the core on the scaled problem and scale its answer back.

    The problem is a family constant in b, solved at b = 0, whose row and
    column ids index the scaled cost matrix.
    """
    masses, mass_scale = _as_ints(supply + demand)
    cost_scale = _as_ints([c for row in cost for c in row])[1]
    scaled_cost = [[c.numerator * (cost_scale // c.denominator) for c in row] for row in cost]
    s, d = masses[: len(supply)], masses[len(supply) :]
    family = AffineFamily(list(range(len(s))), list(range(len(d))), s, s, d, d, mass_scale)
    basis, pivots, degenerate = solve_family(family, 0, 1, scaled_cost)
    nr = len(supply)
    flows = {_cell(x, basis.parent[x], nr): Fraction(basis.f0[x], mass_scale) for x in basis.order[1:]}
    u = [Fraction(x, cost_scale) for x in basis.u]
    v = [Fraction(x, cost_scale) for x in basis.v]
    return Fraction(basis.piece.w0, mass_scale * cost_scale), flows, u, v, basis, pivots, degenerate


def _assert_matches_reference(supply, demand, cost):
    """Check the core's answer and return its pivot and degenerate pivot counts."""
    with _deadline(10):
        value, flows, u, v, basis, pivots, degenerate = _core_in_fractions(supply, demand, cost)
    ref_value = reference_transportation_simplex(supply, demand, cost)[0]
    assert value == ref_value
    nr, nc = len(supply), len(demand)
    assert len(flows) == nr + nc - 1
    assert all(q >= 0 for q in flows.values())
    assert [sum(q for (i, _j), q in flows.items() if i == r) for r in range(nr)] == supply
    assert [sum(q for (_i, j), q in flows.items() if j == c) for c in range(nc)] == demand
    assert value == sum(q * cost[i][j] for (i, j), q in flows.items())
    for i, row in enumerate(cost):
        for j, c in enumerate(row):
            reduced = c - u[i] - v[j]
            assert reduced >= 0 and (reduced == 0 or (i, j) not in flows)
    # The returned tree is the basis: every cell hangs one node from another.
    assert basis.order[0] == 0 and basis.parent[0] == -1 and sorted(basis.order) == list(range(nr + nc))
    seen = {0}
    for x in basis.order[1:]:
        p = basis.parent[x]
        assert p in seen and (x < nr) != (p < nr)
        assert ((x, p - nr) if x < nr else (p, x - nr)) in flows
        seen.add(x)
    assert pivots >= degenerate >= 0
    return pivots, degenerate


def _masses(rng, n, denominator, shared=()):
    """n positive masses over ``denominator`` summing to 1.

    Partial sums land on ``shared`` (multiples of 1/denominator) plus random
    cuts, so two calls with the same ``shared`` cuts have equal partial sums
    there: a start that fills rows and columns in order then exhausts a row
    and a column at once, and the basis is degenerate.
    """
    cuts = set(shared)
    while len(cuts) < n - 1:
        cuts.add(rng.randrange(1, denominator))
    bounds = [0, *sorted(cuts), denominator]
    return [Fraction(b - a, denominator) for a, b in zip(bounds, bounds[1:])]


def _mixed_masses(rng, n):
    raw = [Fraction(rng.randint(1, 40), rng.choice([1, 3, 7, 12, 2**20])) for _ in range(n)]
    total = sum(raw)
    return [x / total for x in raw]


def _cost(rng, nr, nc, kind):
    if kind == "zero":
        return [[Fraction(0)] * nc for _ in range(nr)]
    if kind == "tied":
        return [[Fraction(rng.randint(1, 2)) for _ in range(nc)] for _ in range(nr)]
    dens = {"small": [1, 2, 3], "mixed": [1, 7, 12], "large": [2**20, 7 * 2**20]}[kind]
    return [
        [Fraction(rng.randint(0, 12 * d), d) for d in (rng.choice(dens) for _ in range(nc))]
        for _ in range(nr)
    ]


def _instances(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        shape = k % 4
        if shape == 0:
            nr, nc = 1, rng.randint(1, 7)
        elif shape == 1:
            nr, nc = rng.randint(1, 7), 1
        else:
            nr, nc = rng.randint(2, 7), rng.randint(2, 7)
        kind = ("zero", "tied", "small", "mixed", "large")[k % 5]
        if k % 3 == 0:
            den = rng.choice([7, 12, 2**20])
            den = max(den, 2 * (nr + nc))
            shared = rng.sample(range(1, den), min(nr, nc) - 1) if k % 2 else ()
            supply = _masses(rng, nr, den, shared)
            demand = _masses(rng, nc, den, shared)
        else:
            supply, demand = _mixed_masses(rng, nr), _mixed_masses(rng, nc)
        yield supply, demand, _cost(rng, nr, nc, kind)


def test_core_matches_reference_on_seeded_instances():
    pivots = degenerate = 0
    for supply, demand, cost in _instances(7301, 800):
        made, moved_none = _assert_matches_reference(supply, demand, cost)
        pivots += made
        degenerate += moved_none
    # The corpus exercises both kinds of pivot, and its totals pin the
    # sequence of pivots that Bland's rule and the leaving rule make.
    assert (pivots, degenerate) == (562, 43)


def test_core_matches_reference_on_single_rows_and_columns():
    rng = random.Random(7302)
    for n in range(1, 9):
        masses = _mixed_masses(rng, n)
        for kind in ("zero", "mixed", "large"):
            row_cost = _cost(rng, 1, n, kind)
            assert _assert_matches_reference([Fraction(1)], masses, row_cost)[0] == 0
            col_cost = [[c] for c in _cost(rng, 1, n, kind)[0]]
            assert _assert_matches_reference(masses, [Fraction(1)], col_cost)[0] == 0


@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=6),
    st.lists(st.integers(1, 30), min_size=1, max_size=6),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_core_matches_reference_hypothesis(row_weights, col_weights, data):
    supply = [Fraction(w, sum(row_weights)) for w in row_weights]
    demand = [Fraction(w, sum(col_weights)) for w in col_weights]
    entry = st.fractions(min_value=0, max_value=6, max_denominator=12)
    cost = [
        data.draw(st.lists(entry, min_size=len(demand), max_size=len(demand)))
        for _ in supply
    ]
    _assert_matches_reference(supply, demand, cost)


def test_wasserstein_reports_pivots():
    rng = random.Random(7303)
    seen = 0
    for _ in range(10):
        hg = random_undirected(rng)
        oracle = all_pairs_distances(hg)
        u, v = rng.sample(range(hg.n_vertices), 2)
        mu = measure_undirected(hg, u, Fraction(1, 3))
        nu = measure_undirected(hg, v, Fraction(1, 3))
        res = wasserstein(mu, nu, oracle)
        assert res.pivots >= res.degenerate_pivots >= 0
        seen += res.pivots
    assert seen > 0


def _blend(m0, m1, b):
    """``(1-b)*m0 + b*m1`` without zero entries."""
    out = {v: (1 - b) * m0.get(v, 0) + b * m1.get(v, 0) for v in {*m0, *m1}}
    return {v: m for v, m in out.items() if m}


def _affine_family(rng, k):
    """Endpoint measures (mu0, nu0, mu1, nu1) and a cost oracle on n vertices.

    Each endpoint measure sits on its own random subset, so many rows and
    columns of a solve on the union supports carry zero mass at one endpoint.
    Every third family cuts both measures of an endpoint at shared partial
    sums, which makes degenerate bases; cost kinds include all-zero and tied
    costs.
    """
    n = rng.randint(2, 7)
    den = max((7, 12, 2**20)[k % 3], n)
    ends = []
    for _end in range(2):
        shared = rng.sample(range(1, den), 1) if k % 3 == 0 and n > 2 else ()
        for _side in range(2):
            support = rng.sample(range(n), rng.randint(max(1, len(shared) + 1), n))
            ends.append(dict(zip(support, _masses(rng, len(support), den, shared))))
    kind = ("zero", "tied", "small", "mixed", "large")[k % 5]
    cost = _cost(rng, n, n, kind)
    return ends, DistanceOracle(dist=tuple(map(tuple, cost)), symmetric=False)


def _aligned(ends):
    """Union supports of both sides and the four endpoint masses on them, as
    ints over one scale: the layout of an ``AffineFamily``."""
    mu0, nu0, mu1, nu1 = ends
    rows, cols = sorted({*mu0, *mu1}), sorted({*nu0, *nu1})
    scale = math.lcm(*{Fraction(m).denominator for end in ends for m in end.values()})
    ints = [
        [int(end.get(v, 0) * scale) for v in support]
        for end, support in zip(ends, (rows, cols, rows, cols))
    ]
    return rows, cols, ints, scale


def _interior(rng, lo, hi):
    return lo + (hi - lo) * Fraction(rng.randint(1, 999), 1000)


def _covers(piece, p, q):
    """Whether ``p/q`` (``q > 0``) lies in the piece's interval, compared on ints."""
    return piece.lo_num * q <= p * piece.lo_den and p * piece.hi_den <= piece.hi_num * q


def test_linear_piece_matches_fresh_solves():
    """Pieces ranged from solves on the union supports, at an interior alpha
    and at 0 and 1, where the rows and columns of the other endpoint carry no
    mass, equal fresh solves inside and never exceed W outside."""
    rng = random.Random(7304)
    proper = degenerate = zero_rows = 0
    for k in range(300):
        ends, oracle = _affine_family(rng, k)
        mu0, nu0, mu1, nu1 = ends
        rows, cols, (m0, n0, m1, n1), scale = _aligned(ends)
        family = AffineFamily(rows, cols, m0, m1, n0, n1, scale)

        def w(b):
            return wasserstein(_blend(mu0, mu1, b), _blend(nu0, nu1, b), oracle).value

        for alpha in (_interior(rng, Fraction(0), Fraction(1)), Fraction(0), Fraction(1)):
            mu = {v: (1 - alpha) * mu0.get(v, 0) + alpha * mu1.get(v, 0) for v in rows}
            nu = {v: (1 - alpha) * nu0.get(v, 0) + alpha * nu1.get(v, 0) for v in cols}
            zero_rows += 0 in mu.values()
            with _deadline(10):
                basis = solve_family(family, alpha.numerator, alpha.denominator, oracle.table)[0]
                piece = basis.piece
                lo = Fraction(piece.lo_num, piece.lo_den)
                hi = Fraction(piece.hi_num, piece.hi_den)
                assert lo <= alpha <= hi
                assert _covers(piece, alpha.numerator, alpha.denominator)

                def at(b):
                    value = piece.at(b.numerator, b.denominator)
                    return Fraction(value, b.denominator * scale * oracle.scale)

                for b in (lo, hi, alpha, _interior(rng, lo, hi)):
                    assert _covers(piece, b.numerator, b.denominator)
                    assert at(b) == w(b), (k, b, piece)
                # W is convex, so its supporting line never lies above it.
                outside = [Fraction(0), Fraction(1)]
                outside += [_interior(rng, Fraction(0), lo) for _ in range(2)]
                outside += [_interior(rng, hi, Fraction(1)) for _ in range(2)]
                for b in outside:
                    assert at(b) <= w(b), (k, b, piece)
            proper += (lo, hi) != (0, 1)
            r, p = alpha.denominator - alpha.numerator, alpha.numerator
            degenerate += any(r * basis.f0[x] + p * basis.f1[x] == 0 for x in basis.order[1:])
    # Enough pieces have a kink for a piece that ignores the ratio test to
    # fail, some optimal bases carry zero flows at the solve alpha, and most
    # endpoint solves keep zero-mass rows.
    assert proper > 500 and degenerate > 300 and zero_rows > 250


def _trace(family, basis):
    """Bases from a piece reaching 0 up to ``basis``, by dual pivots down from it.

    The families here have at most 7 rows and columns, and their chains at
    most a few dozen bases; a pivot rule that wanders fails at the bound.
    """
    bases = [basis]
    while bases[-1].piece.lo_num:
        if len(bases) == 200:
            raise AssertionError("no end of [0, 1] after 200 dual pivots")
        bases.append(dual_pivot(family, bases[-1]))
    return bases[::-1]


def _assert_optimal_potentials(basis):
    """``u[i] + v[j]`` meets every basic cell's cost and no cell's cost exceeds it."""
    nr = len(basis.u)
    basic = {(x, p - nr) if x < nr else (p, x - nr) for x, p in enumerate(basis.parent) if p >= 0}
    assert len(basic) == len(basis.parent) - 1
    for i, row in enumerate(basis.cost):
        for j, c in enumerate(row):
            reduced = c - basis.u[i] - basis.v[j]
            assert reduced >= 0 and (reduced == 0 or (i, j) not in basic)


def test_traced_pieces_match_fresh_solves():
    """From one solve at ``b* = D/(D+1)``, D the family's total int mass, and
    one at an interior alpha, at 0 or at 1, dual pivots trace chains of
    pieces that are contiguous from the solve down to 0. The chain from
    ``b*`` ends at 1, and every piece equals a fresh solve at its two ends
    and inside."""
    rng = random.Random(7306)
    pieces = points = kinks = zero_rows = 0
    for k in range(300):
        ends, oracle = _affine_family(rng, k)
        mu0, nu0, mu1, nu1 = ends
        rows, cols, (m0, n0, m1, n1), scale = _aligned(ends)
        family = AffineFamily(rows, cols, m0, m1, n0, n1, scale)

        def w(b):
            return wasserstein(_blend(mu0, mu1, b), _blend(nu0, nu1, b), oracle).value

        total = sum(m0) + sum(m1)
        top = Fraction(total, total + 1)
        alpha = (_interior(rng, Fraction(0), Fraction(1)), Fraction(0), Fraction(1))[k % 3]
        zero_rows += 0 in m0 or 0 in m1
        for start in (top, alpha):
            with _deadline(10):
                cold = solve_family(family, start.numerator, start.denominator, oracle.table)[0]
                chain = _trace(family, cold)
            traced = [b.piece for b in chain]
            assert traced[0].lo_num == 0
            assert start != top or traced[-1].hi_num == traced[-1].hi_den
            for below, above in zip(traced, traced[1:]):
                assert Fraction(below.hi_num, below.hi_den) == Fraction(above.lo_num, above.lo_den)
            assert _covers(cold.piece, start.numerator, start.denominator)
            for basis in chain:
                _assert_optimal_potentials(basis)
                piece = basis.piece
                lo = Fraction(piece.lo_num, piece.lo_den)
                hi = Fraction(piece.hi_num, piece.hi_den)
                for b in {lo, hi, _interior(rng, lo, hi)}:
                    value = piece.at(b.numerator, b.denominator)
                    value = Fraction(value, b.denominator * scale * oracle.scale)
                    assert value == w(b), (k, b, piece)
                pieces += 1
                points += lo == hi
            proper = [piece for piece in traced if not piece.is_point()]
            kinks += sum((a.w0, a.w1) != (b.w0, b.w1) for a, b in zip(proper, proper[1:]))
    # Chains of several pieces, with breakpoints where W kinks, degenerate
    # breakpoints that pass through bases of a single alpha, and families
    # whose rows carry no mass at one end.
    assert pieces > 1000 and kinks > 400 and points > 100 and zero_rows > 200


def _family_keys(hg):
    """The ``reference_family`` keys of every transport the CLI solves for ``hg``."""
    pairs = [("pair", u, v) for u, v in curvature_pairs(hg)]
    if hg.flavor == UNDIRECTED:
        return pairs
    edges = [("edge", h) for h in range(hg.n_edges)]
    return edges + pairs if hg.flavor == ORIENTED else edges


KERNEL_CORPORA = {
    "undirected": lambda: undirected_corpus(7311, 4, n_max=6),
    "directed": lambda: directed_corpus(7312, 4, n_max=5),
    "oriented": lambda: oriented_corpus(7313, 3, n_max=5),
}


@pytest.mark.parametrize("flavor", sorted(KERNEL_CORPORA))
def test_solve_family_matches_the_oracles(flavor):
    """The Evaluator's cold solve, straight from a family's int masses,
    against the LP and forest-enumeration optima of ``tests/oracles.py`` on
    the families that ``reference_family`` builds. At alpha 0 and 1 the
    union supports keep rows and columns of zero mass, and at alpha 1 a
    pair measure sits on one vertex. The ranged piece covers the alpha,
    its basis is optimal, and ``wasserstein`` on the same masses finds the
    same value."""
    zero_mass = one_vertex = lp = brute = 0
    for hg in KERNEL_CORPORA[flavor]():
        oracle = all_pairs_distances(hg)
        for key in _family_keys(hg):
            family = AffineFamily(*reference_family(hg, key))
            for b in (Fraction(0), Fraction(1, 3), Fraction(3, 4), Fraction(1)):
                p, q = b.numerator, b.denominator
                with _deadline(10):
                    basis = solve_family(family, p, q, oracle.table)[0]
                piece = basis.piece
                assert _covers(piece, p, q)
                _assert_optimal_potentials(basis)
                masses = family.masses(p, q)
                mu, nu = ({v: Fraction(m, q * family.scale) for v, m in side.items()} for side in masses)
                value = Fraction(piece.at(p, q), q * family.scale * oracle.scale)
                # Both oracles are exponential or dense in the support sizes.
                support = [sum(1 for m in side.values() if m) for side in (mu, nu)]
                if support[0] * support[1] <= 16:
                    assert value == lp_wasserstein(mu, nu, oracle.d), (key, b)
                    lp += 1
                if max(support) <= 3:
                    assert value == brute_wasserstein(mu, nu, oracle.d), (key, b)
                    brute += 1
                assert wasserstein(mu, nu, oracle).value == value
                zero_mass += 0 in mu.values() or 0 in nu.values()
                one_vertex += min(support) == 1
    assert zero_mass > 20 and one_vertex > 20 and lp > 20 and brute > 20, (zero_mass, one_vertex, lp, brute)


def _final_piece_checked(family, table):
    """Solve ``family`` at ``b* = D/(D+1)``, D its total int mass, and check
    that the ranged piece is W's final one, ``[lo, 1]`` with ``lo < b*``."""
    total = sum(family.mu0) + sum(family.mu1)
    with _deadline(10):
        piece = solve_family(family, total, total + 1, table)[0].piece
    assert not piece.is_point() and piece.hi_num == piece.hi_den, (family, piece)
    assert piece.lo_num * (total + 1) < total * piece.lo_den, (family, piece)
    return piece.lo_num == 0


def test_solve_at_b_star_ranges_into_the_final_piece():
    """The cold solve of a chain, at ``b* = D/(D+1)``, ranges into a piece
    that ends at 1 and starts below ``b*``, on the ``_affine_family``
    families and on the ``reference_family`` of every transport of the
    ``KERNEL_CORPORA`` documents. Enough of the pieces stop short of 0 for
    a solve that ranged [0, 1] everywhere to fail."""
    rng = random.Random(7308)
    short = 0
    for k in range(300):
        ends, oracle = _affine_family(rng, k)
        rows, cols, (m0, n0, m1, n1), scale = _aligned(ends)
        family = AffineFamily(rows, cols, m0, m1, n0, n1, scale)
        short += not _final_piece_checked(family, oracle.table)
    for flavor in sorted(KERNEL_CORPORA):
        for hg in KERNEL_CORPORA[flavor]():
            table = all_pairs_distances(hg).table
            for key in _family_keys(hg):
                short += not _final_piece_checked(AffineFamily(*reference_family(hg, key)), table)
    assert short > 250


def test_solve_family_checks_the_masses():
    oracle = DistanceOracle(dist=((0, 1), (1, 0)), symmetric=True)
    family = AffineFamily([0], [1], [1], [1], [2], [2], 1)
    with pytest.raises(errors.MassMismatch):
        solve_family(family, 1, 2, oracle.table)


def test_explicit_zeros_are_empty_rows_and_columns():
    """Zero entries of a plain mass map change neither the value, the
    marginals of the coupling nor the value of the dual witness."""
    rng = random.Random(7305)
    padded_rows = padded_cols = 0
    for _ in range(40):
        hg = random_undirected(rng)
        oracle = all_pairs_distances(hg)
        u, v = rng.sample(range(hg.n_vertices), 2)
        a = Fraction(rng.randint(0, 6), 6)
        mu = measure_undirected(hg, u, a).mass
        nu = measure_undirected(hg, v, a).mass
        mu_zeros = {**mu, **{z: Fraction(0) for z in rng.sample(range(hg.n_vertices), 2) if z not in mu}}
        nu_zeros = {**nu, **{z: 0 for z in rng.sample(range(hg.n_vertices), 2) if z not in nu}}
        padded_rows += len(mu_zeros) > len(mu)
        padded_cols += len(nu_zeros) > len(nu)
        plain = wasserstein(mu, nu, oracle)
        padded = wasserstein(mu_zeros, nu_zeros, oracle)
        assert padded.value == plain.value
        assert marginals(coupling(padded)) == marginals(coupling(plain)) == (mu, nu)
        f_padded, f_plain = dual_potential(padded, oracle), dual_potential(plain, oracle)
        assert lipschitz(f_padded, oracle) and lipschitz(f_plain, oracle)
        assert dual_value(f_padded, mu_zeros, nu_zeros) == dual_value(f_plain, mu, nu)
    assert padded_rows > 20 and padded_cols > 20
    oracle = all_pairs_distances(random_undirected(rng))
    with pytest.raises(errors.MassMismatch):
        wasserstein({0: Fraction(0), 1: 0}, {0: Fraction(1)}, oracle)
    with pytest.raises(errors.MassMismatch):
        wasserstein({0: Fraction(1)}, {2: 0}, oracle)


def _assert_feasible_flows(family, basis):
    """The primal half of the certificate: the basic flows meet the family's
    masses at b = 0 and at b = 1, are nonnegative at both ends of
    ``basis.piece``, and price to its ``w0`` and ``w1``. With
    :func:`_assert_optimal_potentials` this certifies the whole piece."""
    nr, piece = len(family.rows), basis.piece
    for flows, mu, nu, w in (
        (basis.f0, family.mu0, family.nu0, piece.w0),
        (basis.f1, family.mu1, family.nu1, piece.w1),
    ):
        rows, cols, priced = [0] * nr, [0] * len(family.cols), 0
        for x in basis.order[1:]:
            i, j = _cell(x, basis.parent[x], nr)
            rows[i] += flows[x]
            cols[j] += flows[x]
            priced += flows[x] * basis.cost[i][j]
        assert (rows, cols, priced) == (mu, nu, w)
    for num, den in ((piece.lo_num, piece.lo_den), (piece.hi_num, piece.hi_den)):
        assert all((den - num) * basis.f0[x] + num * basis.f1[x] >= 0 for x in basis.order[1:])


@pytest.fixture
def certified(monkeypatch):
    """Certify every basis that ``solve_family`` and ``dual_pivot`` return to
    the Evaluator, and count them by the function that returned them."""
    counts = {"solve_family": 0, "dual_pivot": 0}

    def certify(name, family, basis):
        _assert_optimal_potentials(basis)
        _assert_feasible_flows(family, basis)
        counts[name] += 1

    def solve(family, p, q, table):
        found = solve_family(family, p, q, table)
        certify("solve_family", family, found[0])
        return found

    def pivot(family, basis):
        found = dual_pivot(family, basis)
        certify("dual_pivot", family, found)
        return found

    monkeypatch.setattr(curvature_mod, "solve_family", solve)
    monkeypatch.setattr(curvature_mod, "dual_pivot", pivot)
    return counts


@pytest.mark.parametrize(
    "make",
    [random_undirected, random_directed, random_oriented_unit],
    ids=["undirected", "directed", "oriented"],
)
def test_every_basis_the_evaluator_reads_is_certified(certified, capsys, tmp_path, make):
    """Every basis behind ``curvature --all`` and ``bounds`` on seeded
    ``random_instances`` documents has tight potentials with no negative
    reduced cost, and flows that meet the masses and stay nonnegative over
    its piece."""
    rng = random.Random(7314)
    path = tmp_path / "doc.json"
    for _ in range(40):
        path.write_text(json.dumps(serialize_document(named_document(make(rng)))))
        for argv in (["curvature", str(path), "--all", "--format", "json"], ["bounds", str(path)]):
            assert main(argv) in (0, 1, 3)
    capsys.readouterr()
    # Directed documents have only hyperedge targets, and 15 of these 40
    # exit 3 at the first curve that decreases without bound.
    assert certified["solve_family"] > 400 and certified["dual_pivot"] > 100, certified


def test_a_wide_hyperedge_curve_is_certified(certified):
    """The curve of a pair on one unit hyperedge of 100 vertices over [0, 1]:
    one solve and 99 dual pivots on a 100 x 100 basis, each certified."""
    hg = build("undirected", 100, [(list(range(100)), 1)])
    ev = Evaluator(hg, all_pairs_distances(hg))
    ev.curve_ints(("pair", 0, 1), "sum", (Fraction(0), Fraction(1)))
    assert certified == {"solve_family": 1, "dual_pivot": 99}
