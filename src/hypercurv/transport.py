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

For measures affine in a parameter ``b`` (an :class:`AffineFamily`), W is
convex and piecewise linear in ``b``. :func:`ranged_basis` ranges the
optimal basis of one solve into the exact :class:`LinearPiece` of W on
which it stays optimal, and :func:`dual_pivot` steps from a ranged basis
across either end of its piece to the next one, without another solve.

Ground costs come from a :class:`~hypercurv.metric.DistanceOracle` and may
be asymmetric; they are used as-is, no symmetrization ever happens.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

from . import errors
from .metric import DistanceOracle


class Coupling:
    """Sparse joint mass assignment on vertex pairs."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[tuple[int, int], Fraction]):
        self.entries = entries

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


class TransportResult:
    """Optimal value, an optimal coupling, and (optionally) a dual potential.

    The coupling is built from the optimal basis the first time it is read,
    so a caller that needs only the value never pays for it. No
    ``__slots__``: ``cached_property`` stores into the instance dict.
    """

    def __init__(
        self,
        value: Fraction,
        dual_potential: dict[int, Fraction] | None,
        pivots: int,
        degenerate_pivots: int,
        flows: dict,
        row_ids: list,
        col_ids: list,
        mass_scale: int,
        u: list,
        v: list,
        cost: list,
    ):
        self.value = value
        self.dual_potential = dual_potential
        self.pivots = pivots
        self.degenerate_pivots = degenerate_pivots
        # The optimal basis: cell (i, j) -> flow times ``_mass_scale``.
        self._flows = flows
        self._row_ids = row_ids
        self._col_ids = col_ids
        self._mass_scale = mass_scale
        # Its row and column potentials and its cost matrix, on the oracle's scale.
        self._u = u
        self._v = v
        self._cost = cost

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
    cost = [[table[u][v] for v in col_ids] for u in row_ids]
    sol = _transportation_simplex(supply, demand, cost)
    potential = None
    if with_potential:
        potential = _dual_potential(oracle, col_ids, sol.v)
    return TransportResult(
        value=Fraction(sol.value, mass_scale * oracle.scale),
        dual_potential=potential,
        pivots=sol.pivots,
        degenerate_pivots=sol.degenerate_pivots,
        flows=sol.flows,
        row_ids=row_ids,
        col_ids=col_ids,
        mass_scale=mass_scale,
        u=sol.u,
        v=sol.v,
        cost=cost,
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

    def is_point(self) -> bool:
        """Whether the interval is a single ``b``."""
        return self.lo_num * self.hi_den == self.hi_num * self.lo_den


class AffineFamily(NamedTuple):
    """``mu(b) = (1-b)*mu0 + b*mu1`` against ``nu(b) = (1-b)*nu0 + b*nu1``.

    ``rows`` and ``cols`` are the sorted union supports of the two sides;
    ``mu0``/``mu1`` are the row masses and ``nu0``/``nu1`` the column masses
    at b = 0 and 1, each times ``scale``, as ints with zeros kept.
    """

    rows: list
    cols: list
    mu0: list
    mu1: list
    nu0: list
    nu1: list
    scale: int

    def masses(self, p: int, q: int) -> tuple[dict, dict]:
        """Row and column mass maps at ``b = p/q``, times ``q * scale``, zeros kept."""
        r = q - p
        return (
            {v: r * m0 + p * m1 for v, m0, m1 in zip(self.rows, self.mu0, self.mu1)},
            {v: r * m0 + p * m1 for v, m0, m1 in zip(self.cols, self.nu0, self.nu1)},
        )


class Basis(NamedTuple):
    """An optimal basis of an :class:`AffineFamily`, ranged into its piece of W.

    The basis is a spanning tree over the nodes, the rows ``0..nr-1`` and
    then the columns, hung from row 0: ``parent[x]`` is the node above x
    (-1 at the root) and ``order`` lists the nodes breadth first. Every
    other node x carries the basic cell between x and ``parent[x]``, and
    ``f0[x]``/``f1[x]`` are that cell's flow at b = 0 and b = 1 of the
    basis' affine extension, on the family's scale. ``u`` and ``v`` are
    the row and column potentials and ``cost`` the family's cost matrix, on
    the oracle's scale: ``u[i] + v[j]`` is the cost of every basic cell and
    no more than the cost of any cell.
    """

    piece: LinearPiece
    parent: list
    order: list
    f0: list
    f1: list
    u: list
    v: list
    cost: list


def ranged_basis(family: AffineFamily, result: TransportResult) -> Basis:
    """The optimal basis of ``result``, a solve of ``family`` at some ``b`` in [0, 1].

    ``result`` must have a row for every row of the family and a column for
    every column, zero masses kept, as ``wasserstein(*family.masses(p, q))``
    gives. Reduced costs do not depend on the masses, and the basic flows
    are affine in ``b``: the basis stays optimal, and W stays affine,
    exactly where those flows stay nonnegative. The flows are pushed
    through the basis tree for both endpoints, and a ratio test over the
    basic cells gives the piece's ``[lo, hi]``. Since W is convex in ``b``,
    the piece extended to [0, 1] never exceeds W.
    """
    rows, cols = family.rows, family.cols
    if result._row_ids != rows or result._col_ids != cols:
        raise ValueError("the solve's rows and columns are not the family's supports")
    if not (
        len(family.mu0) == len(family.mu1) == len(rows)
        and len(family.nu0) == len(family.nu1) == len(cols)
    ):
        raise ValueError("endpoint masses are not aligned with the rows and columns of the solve")
    nr = len(rows)
    adj = [[] for _ in range(nr + len(cols))]
    for i, j in result._flows:
        adj[i].append(nr + j)
        adj[nr + j].append(i)
    return _range(family, result._cost, adj, result._u, result._v)


def _range(family: AffineFamily, cost, adj, u, v) -> Basis:
    """Hang the basis tree with adjacency ``adj`` from row 0 and range it."""
    nr = len(family.rows)
    # Net supply of each tree node at each end: row masses count plus,
    # column masses minus.
    net0 = family.mu0 + [-m for m in family.nu0]
    net1 = family.mu1 + [-m for m in family.nu1]
    parent = [-1] * len(adj)
    order = [0]
    for x in order:
        up = parent[x]
        for y in adj[x]:
            if y != up:
                parent[y] = x
                order.append(y)
    lo_num, lo_den, hi_num, hi_den = 0, 1, 1, 1
    w0 = w1 = 0
    f0 = [0] * len(adj)
    f1 = [0] * len(adj)
    # Leaves first: the flow on the cell above a node carries the net supply
    # of the subtree under it (out of a row, into a column).
    for x in order[:0:-1]:
        p = parent[x]
        s0, s1 = net0[x], net1[x]
        net0[p] += s0
        net1[p] += s1
        if x < nr:
            c = cost[x][p - nr]
        else:
            c = cost[p][x - nr]
            s0, s1 = -s0, -s1
        f0[x] = s0
        f1[x] = s1
        w0 += s0 * c
        w1 += s1 * c
        # The flow (1-b)*s0 + b*s1 stays nonnegative for b <= s0/(s0-s1) when
        # it falls, and for b >= -s0/(s1-s0) when it rises from below zero.
        if s1 < 0:
            if s0 * hi_den < hi_num * (s0 - s1):
                hi_num, hi_den = s0, s0 - s1
        elif s0 < 0:
            if -s0 * lo_den > lo_num * (s1 - s0):
                lo_num, lo_den = -s0, s1 - s0
    if net0[0] or net1[0]:
        raise errors.MassMismatch("endpoint measures carry different total masses")
    piece = LinearPiece(lo_num, lo_den, hi_num, hi_den, w0, w1)
    return Basis(piece, parent, order, f0, f1, u, v, cost)


def dual_pivot(family: AffineFamily, basis: Basis, upward: bool) -> Basis:
    """The optimal basis just past one end of ``basis.piece``, ranged.

    ``upward`` crosses the piece's ``hi`` end, otherwise its ``lo`` end; that
    end must lie strictly inside (0, 1). One parametric dual-simplex pivot:

    * the leaving cell is a basic cell whose flow is zero at the end and
      would turn negative past it;
    * removing it cuts the tree in two. The flow it carried is the net
      supply of its row's side, which past the end turns negative, so the
      entering cell runs from a row on the column's side into a column on
      the row's side: of those, the one with the least reduced cost;
    * the potentials of the side cut off from the root are shifted by that
      reduced cost so the entering cell becomes tight. Cells crossing the
      cut the same way lose it, cells crossing the other way gain it, and
      every other reduced cost stays as it was: all stay nonnegative;
    * the new basis is ranged again. Its piece starts at the end crossed.

    Reduced costs do not depend on the masses, so the new basis is optimal
    wherever its flows are nonnegative, and no optimality scan is needed.
    Where several flows reach zero at the end, the new piece may be that
    single point, and the caller pivots again. Ties are broken in (row,
    col) order on both sides: the leaving cell is the first that qualifies,
    the entering cell the first of least reduced cost. That is Bland's rule
    for the dual simplex, so a run of pivots at one end cannot cycle.
    """
    piece = basis.piece
    num, den = (piece.hi_num, piece.hi_den) if upward else (piece.lo_num, piece.lo_den)
    nr = len(family.rows)
    parent, order, f0, f1 = basis.parent, basis.order, basis.f0, basis.f1
    # The leaving cell is the one above node ``low``.
    low = leaving = None
    for x in order[1:]:
        s0, s1 = f0[x], f1[x]
        if (s1 < s0 if upward else s1 > s0) and (den - num) * s0 + num * s1 == 0:
            p = parent[x]
            cell = (x, p - nr) if x < nr else (p, x - nr)
            if leaving is None or cell < leaving:
                low, leaving = x, cell
    cut = [False] * len(parent)
    cut[low] = True
    for x in order[1:]:
        if cut[parent[x]]:
            cut[x] = True
    # The side holding the leaving cell's column feeds the other side.
    feeds = low >= nr
    fed = [j for j, moved in enumerate(cut[nr:]) if moved is not feeds]
    cost, u, v = basis.cost, basis.u, basis.v
    best = entering = None
    for i in range(nr):
        if cut[i] is feeds:
            row, ui = cost[i], u[i]
            for j in fed:
                reduced = row[j] - ui - v[j]
                if best is None or reduced < best:
                    best, entering = reduced, (i, j)
    if best:
        shift = best if feeds else -best
        u = [ui + shift if moved else ui for ui, moved in zip(u, cut)]
        v = [vj - shift if moved else vj for vj, moved in zip(v, cut[nr:])]
    adj = [[] for _ in parent]
    for x in order[1:]:
        if x != low:
            adj[x].append(parent[x])
            adj[parent[x]].append(x)
    i, j = entering
    adj[i].append(nr + j)
    adj[nr + j].append(i)
    return _range(family, cost, adj, u, v)


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
