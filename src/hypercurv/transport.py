"""Exact discrete 1-Wasserstein transport with primal coupling and dual witness.

The solver is a transportation simplex on the complete bipartite support
graph: northwest-corner start, Bland entering rule on lexicographic
(row, col) order, leaving arc chosen as the lexicographically smallest
minimizer. Each solve scales the masses to Python ints once, by the lcm
of their denominators, reads int costs straight from the oracle's table
(distances times its ``scale``), pivots on ints, and builds Fractions
only for the result: the optimum, the coupling and the dual potential are
exact and reproducible. Scaling changes no comparison, so the pivots and
the results are those of the same simplex run on Fractions. The coupling
is built from the optimal basis only when it is read.

Ground costs come from a :class:`~hypercurv.metric.DistanceOracle` and may
be asymmetric; they are used as-is, no symmetrization ever happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

from . import errors
from .metric import DistanceOracle


@dataclass
class Coupling:
    """Sparse joint mass assignment on vertex pairs."""

    entries: dict[tuple[int, int], Fraction]

    def left_marginal(self) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for (u, _v), m in self.entries.items():
            out[u] = out.get(u, 0) + m
        return {u: m for u, m in out.items() if m != 0}

    def right_marginal(self) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for (_u, v), m in self.entries.items():
            out[v] = out.get(v, 0) + m
        return {v: m for v, m in out.items() if m != 0}

    def total(self):
        return sum(self.entries.values())

    def cost(self, oracle: DistanceOracle):
        return sum(m * oracle.d(u, v) for (u, v), m in self.entries.items())


@dataclass
class TransportResult:
    """Optimal value, an optimal coupling, and (optionally) a dual potential.

    The coupling is built from the optimal basis the first time it is read,
    so a caller that needs only the value never pays for it.
    """

    value: Fraction
    dual_potential: dict[int, Fraction] | None = None
    pivots: int = 0
    degenerate_pivots: int = 0
    # The optimal basis: cell (i, j) -> flow times ``_mass_scale``.
    _flows: dict = field(default_factory=dict, repr=False, compare=False)
    _row_ids: list = field(default_factory=list, repr=False, compare=False)
    _col_ids: list = field(default_factory=list, repr=False, compare=False)
    _mass_scale: int = field(default=1, repr=False, compare=False)

    @cached_property
    def coupling(self) -> Coupling:
        rows, cols, scale = self._row_ids, self._col_ids, self._mass_scale
        return Coupling(
            entries={
                (rows[i], cols[j]): Fraction(q, scale)
                for (i, j), q in sorted(self._flows.items())
                if q
            }
        )


def _mass_map(mu) -> dict:
    return mu.mass if hasattr(mu, "mass") else mu


def wasserstein(
    mu,
    nu,
    oracle: DistanceOracle,
    with_potential: bool = False,
) -> TransportResult:
    """Minimum-cost coupling between two equal-mass sparse measures.

    ``mu`` and ``nu`` are ProbabilityMeasures or plain ``{vertex: mass}``
    maps with rational masses. The optimum is taken over couplings
    supported on support(mu) x support(nu), which is the whole
    transportation polytope. A zero mass in a plain map stays a row or
    column with no supply or demand; the value and the coupling are those
    without it. ``with_potential`` additionally returns a function f on
    all oracle vertices satisfying f(u) - f(v) <= d(u, v) for every
    ordered pair.
    """
    rows = sorted(_mass_map(mu).items())
    cols = sorted(_mass_map(nu).items())
    masses, mass_scale = _as_ints([m for _v, m in rows] + [m for _v, m in cols])
    supply, demand = masses[: len(rows)], masses[len(rows) :]
    if not any(supply) or not any(demand):
        raise errors.MassMismatch("transport endpoints must carry positive mass")
    if sum(supply) != sum(demand):
        raise errors.MassMismatch(
            f"total masses differ: {sum(m for _v, m in rows)} vs {sum(m for _v, m in cols)}"
        )
    row_ids = [v for v, _m in rows]
    col_ids = [v for v, _m in cols]
    if min(row_ids[0], col_ids[0]) < 0 or max(row_ids[-1], col_ids[-1]) >= oracle.n:
        for u in row_ids:
            for v in col_ids:
                oracle.d(u, v)  # raises MissingDistance at the first pair off the table
    table = oracle.table
    sol = _transportation_simplex(
        supply, demand, [[table[u][v] for v in col_ids] for u in row_ids]
    )
    potential = None
    if with_potential:
        potential = _dual_potential(oracle, col_ids, sol.v)
    return TransportResult(
        value=Fraction(sol.value, mass_scale * oracle.scale),
        dual_potential=potential,
        pivots=sol.pivots,
        degenerate_pivots=sol.degenerate_pivots,
        _flows=sol.flows,
        _row_ids=row_ids,
        _col_ids=col_ids,
        _mass_scale=mass_scale,
    )


class LinearPiece(NamedTuple):
    """W on an interval of ``b``, on ints.

    For ``b = p/q`` (``q > 0``) with ``lo_num/lo_den <= b <= hi_num/hi_den``,
    ``W(b) = ((q-p)*w0 + p*w1) / (q * scale)``, where ``scale`` is the
    common scale of the endpoint masses times the oracle's ``scale``.
    """

    lo_num: int
    lo_den: int
    hi_num: int
    hi_den: int
    w0: int
    w1: int

    def covers(self, p: int, q: int) -> bool:
        """Whether ``p/q`` lies in the piece's interval."""
        return self.lo_num * q <= p * self.lo_den and p * self.hi_den <= self.hi_num * q

    def at(self, p: int, q: int) -> int:
        """``W(p/q) * q * scale``."""
        return (q - p) * self.w0 + p * self.w1


def linear_piece(
    result: TransportResult, mu0, nu0, mu1, nu1, oracle: DistanceOracle
) -> LinearPiece:
    """Interval of ``b`` on which the optimal basis of ``result`` stays optimal.

    ``result`` solved ``mu(b) = (1-b)*mu0 + b*mu1`` against ``nu(b) = (1-b)*nu0
    + b*nu1`` at some ``b`` in [0, 1], with a row for every vertex of
    support(mu0) + support(mu1) and a column for every vertex of
    support(nu0) + support(nu1), zero masses kept. ``mu0`` and ``mu1`` are
    int masses aligned with the result's rows, ``nu0`` and ``nu1`` with its
    columns, all four on one scale. Reduced costs do not depend on the
    masses, and the basic flows are affine in ``b``: the basis stays
    optimal, and W stays affine, exactly where those flows stay
    nonnegative. The flows are pushed through the basis tree for both
    endpoints, and a ratio test over the basic cells gives ``[lo, hi]``.
    Since W is convex in ``b``, the piece extended to [0, 1] never exceeds W.
    """
    rows, cols, cells = result._row_ids, result._col_ids, list(result._flows)
    nr, nodes = len(rows), len(rows) + len(cols)
    if not (len(mu0) == len(mu1) == nr and len(nu0) == len(nu1) == nodes - nr):
        raise ValueError("endpoint masses are not aligned with the rows and columns of the solve")
    # Net supply of each tree node at each end: row masses count plus,
    # column masses minus.
    nets = ([*mu0, *(-m for m in nu0)], [*mu1, *(-m for m in nu1)])
    adj = [set() for _ in range(nodes)]
    for i, j in cells:
        adj[i].add(nr + j)
        adj[nr + j].add(i)
    parent = [-1] * nodes
    order = _rehang(adj, parent, [0] * nodes, 0)
    table = oracle.table
    lo_num, lo_den, hi_num, hi_den = 0, 1, 1, 1
    w0 = w1 = 0
    # Leaves first: the flow on the cell above a node carries the net supply
    # of the subtree under it (out of a row, into a column).
    for x in reversed(order[1:]):
        p = parent[x]
        f0, f1 = nets[0][x], nets[1][x]
        nets[0][p] += f0
        nets[1][p] += f1
        if x < nr:
            c = table[rows[x]][cols[p - nr]]
        else:
            c = table[rows[p]][cols[x - nr]]
            f0, f1 = -f0, -f1
        w0 += f0 * c
        w1 += f1 * c
        # The flow (1-b)*f0 + b*f1 stays nonnegative for b <= f0/(f0-f1) when
        # it falls, and for b >= -f0/(f1-f0) when it rises from below zero.
        if f1 < 0:
            if f0 * hi_den < hi_num * (f0 - f1):
                hi_num, hi_den = f0, f0 - f1
        elif f0 < 0:
            if -f0 * lo_den > lo_num * (f1 - f0):
                lo_num, lo_den = -f0, f1 - f0
    if nets[0][0] or nets[1][0]:
        raise errors.MassMismatch("endpoint measures carry different total masses")
    return LinearPiece(lo_num, lo_den, hi_num, hi_den, w0, w1)


def _as_ints(values) -> tuple[list[int], int]:
    """Rationals times the lcm of their denominators, as ints, and that lcm."""
    ratios = [x.as_integer_ratio() for x in values]
    scale = math.lcm(*{d for _n, d in ratios})
    return [n * (scale // d) for n, d in ratios], scale


def _dual_potential(oracle, col_ids, duals_v):
    # One-sided transform of the column prices: f(z) = min_j d(z, y_j) - v_j.
    # The triangle inequality makes f feasible for every ordered pair, and
    # complementary slackness makes its objective meet the primal value.
    # ``duals_v`` and the table share the oracle's scale.
    return {
        z: Fraction(min(row[y] - vj for y, vj in zip(col_ids, duals_v)), oracle.scale)
        for z, row in enumerate(oracle.table)
    }


class _Solution(NamedTuple):
    """Optimal basis of one simplex run, in the units of its inputs."""

    value: object  # sum of flow * cost over the basis
    flows: dict  # basic cell (i, j) -> flow; a degenerate basis keeps zeros
    u: list  # row potentials, u[0] = 0
    v: list  # column potentials; u[i] + v[j] = cost[i][j] on basic cells
    pivots: int
    degenerate_pivots: int  # pivots that moved no mass


def _transportation_simplex(supply, demand, cost) -> _Solution:
    """Primal network simplex on a spanning-tree basis of the bipartite support.

    Runs on ints with exact comparisons. Nodes are the rows ``0..nr-1`` and
    the columns ``nr..nr+nc-1``; the basis tree hangs from row 0 and is kept
    as adjacency sets with ``parent``/``depth`` arrays. A pivot walks both
    ends of the entering cell up to their common ancestor to find the cycle,
    then re-hangs only the subtree cut off by the leaving cell and shifts its
    potentials by the entering reduced cost.
    """
    nr = len(supply)
    flows = _northwest_corner(supply, demand)
    adj = [set() for _ in range(nr + len(demand))]
    for i, j in flows:
        adj[i].add(nr + j)
        adj[nr + j].add(i)
    parent = [-1] * len(adj)
    depth = [0] * len(adj)
    u = [0] * nr
    v = [None] * len(demand)
    for x in _rehang(adj, parent, depth, 0)[1:]:
        if x < nr:
            u[x] = cost[x][parent[x] - nr] - v[parent[x] - nr]
        else:
            v[x - nr] = cost[parent[x]][x - nr] - u[parent[x]]

    pivots = degenerate = 0
    while (entering := _bland_entering(cost, u, v, flows)) is not None:
        i, j = entering
        reduced = cost[i][j] - u[i] - v[j]
        # Climb from both ends to the common ancestor. Flow leaves the cells
        # above rows on the row's side and above columns on the column's.
        a, b = i, nr + j
        row_side, col_side = [], []
        while depth[a] > depth[b]:
            row_side.append(a)
            a = parent[a]
        while depth[b] > depth[a]:
            col_side.append(b)
            b = parent[b]
        while a != b:
            row_side.append(a)
            a = parent[a]
            col_side.append(b)
            b = parent[b]
        minus, plus = [], []
        for x in row_side:
            if x < nr:
                minus.append((x, parent[x] - nr))
            else:
                plus.append((parent[x], x - nr))
        for x in col_side:
            if x < nr:
                plus.append((x, parent[x] - nr))
            else:
                minus.append((parent[x], x - nr))
        theta, leaving = min((flows[c], c) for c in minus)
        pivots += 1
        if theta == 0:
            degenerate += 1
        else:
            for c in plus:
                flows[c] += theta
            for c in minus:
                flows[c] -= theta
        flows[entering] = theta
        del flows[leaving]

        # The leaving cell cuts off the subtree under its lower end; that
        # subtree holds exactly one end of the entering cell and is re-hung
        # from it. Its potentials move by the entering reduced cost so the
        # entering cell becomes tight: rows by +shift, columns by -shift.
        low = leaving[0] if parent[leaving[0]] == nr + leaving[1] else nr + leaving[1]
        adj[low].discard(parent[low])
        adj[parent[low]].discard(low)
        adj[i].add(nr + j)
        adj[nr + j].add(i)
        if low in row_side:
            top, shift = i, reduced
            parent[i] = nr + j
        else:
            top, shift = nr + j, -reduced
            parent[nr + j] = i
        depth[top] = depth[parent[top]] + 1
        for x in _rehang(adj, parent, depth, top):
            if x < nr:
                u[x] += shift
            else:
                v[x - nr] -= shift

    value = sum(q * cost[i][j] for (i, j), q in flows.items())
    return _Solution(value, flows, u, v, pivots, degenerate)


def _northwest_corner(supply, demand) -> dict:
    nr, nc = len(supply), len(demand)
    s = list(supply)
    d = list(demand)
    flows = {}
    i = j = 0
    while True:
        q = s[i] if s[i] < d[j] else d[j]
        flows[(i, j)] = q
        s[i] -= q
        d[j] -= q
        if i == nr - 1 and j == nc - 1:
            break
        if s[i] == 0 and i < nr - 1:
            i += 1
        else:
            j += 1
    return flows


def _rehang(adj, parent, depth, top) -> list[int]:
    """Nodes hanging from ``top`` in breadth-first order, with their ``parent``
    and ``depth`` reset from ``top`` down; ``top``'s own entries are the caller's."""
    order = [top]
    for x in order:
        for y in adj[x]:
            if y != parent[x]:
                parent[y] = x
                depth[y] = depth[x] + 1
                order.append(y)
    return order


def _bland_entering(cost, u, v, flows):
    """First nonbasic cell in (row, col) order with a negative reduced cost."""
    for i, (row, ui) in enumerate(zip(cost, u)):
        for j, (c, vj) in enumerate(zip(row, v)):
            if c - ui - vj < 0 and (i, j) not in flows:
                return i, j
    return None


def lipschitz_check(f, oracle: DistanceOracle) -> bool:
    """True iff f(u) - f(v) <= d(u, v) for every ordered vertex pair.

    Checking both orders of each pair makes this the two-sided condition
    whenever the oracle is symmetric.
    """
    values = [f[v] for v in range(oracle.n)]
    for u in range(oracle.n):
        for v in range(oracle.n):
            if u != v and values[u] - values[v] > oracle.d(u, v):
                return False
    return True


def dual_value(f, mu, nu, oracle: DistanceOracle):
    """Objective sum f * (mu - nu) of a verified dual witness.

    Always a lower bound on the transport value; meets it exactly when the
    ground distance is symmetric.
    """
    if not lipschitz_check(f, oracle):
        raise errors.NotLipschitz("candidate potential violates a distance constraint")
    total = Fraction(0)
    for v, m in _mass_map(mu).items():
        if m:
            total += f[v] * m
    for v, m in _mass_map(nu).items():
        if m:
            total -= f[v] * m
    return total


def interpolate_coupling(pi_a, pi_c, lam) -> Coupling:
    """Entrywise convex combination lam*pi_a + (1-lam)*pi_c.

    The marginals of the result are the same convex combinations of the
    input marginals, which is what makes interpolated couplings feasible
    for interpolated walk measures.
    """
    lam = Fraction(lam) if not isinstance(lam, float) else Fraction(lam).limit_denominator(2**32)
    if lam < 0 or lam > 1:
        raise errors.AlphaOutOfRange(f"interpolation weight must be in [0, 1], got {lam}")
    if pi_a.total() != pi_c.total():
        raise errors.ShapeMismatch(
            f"couplings carry different total mass: {pi_a.total()} vs {pi_c.total()}"
        )
    entries: dict[tuple[int, int], Fraction] = {}
    for key, m in pi_a.entries.items():
        entries[key] = lam * m
    for key, m in pi_c.entries.items():
        entries[key] = entries.get(key, Fraction(0)) + (1 - lam) * m
    return Coupling(entries={k: m for k, m in sorted(entries.items()) if m != 0})
