"""Exact discrete 1-Wasserstein transport.

The solver is a transportation simplex on the complete bipartite support
graph: a least-cost start that allocates cells in (cost, row, col) order,
so mass that both measures put on a vertex stays on its zero-cost cell,
then Bland's entering rule on lexicographic (row, col) order, leaving arc
chosen as the lexicographically smallest minimizer. Each solve scales the
masses to Python ints once, by the lcm of their denominators, reads int
costs straight from the oracle's table (distances times its ``scale``),
pivots on ints, and builds a Fraction only for the optimum, which is
exact and reproducible. Scaling changes no comparison, so the pivots and
the optimum are those of the same simplex run on Fractions. An optimal
coupling and potential are not built: the optimal basis holds both.

For measures affine in a parameter ``b`` (an :class:`AffineFamily`), W is
convex and piecewise linear in ``b``. :func:`solve_family` solves a family
at one ``b`` straight from its int masses, and :func:`dual_pivot` steps
from an optimal basis across the lower end of its piece of W to the next
one down, without another solve. Both simplexes run on one ranged
:class:`Basis`, which carries the exact :class:`LinearPiece` of W on which
its flows stay nonnegative, and change it by one tree exchange
(``_exchange``): drop the cell above one node, add one cell, then hang,
price and range the new tree afresh. They differ only in how they choose
the two cells. :func:`wasserstein` is :func:`solve_family` on a family
constant in ``b``.

Ground costs come from a :class:`~hypercurv.metric.DistanceOracle` and may
be asymmetric; they are used as-is, no symmetrization ever happens.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import errors
from .metric import DistanceOracle


class TransportResult(
    namedtuple("TransportResult", "value pivots degenerate_pivots family basis")
):
    """The optimal value, the primal pivots the solve took and how many of
    them moved no mass, and the family it solved with its optimal basis."""

    __slots__ = ()


def _mass_map(mu) -> dict:
    return mu.mass if hasattr(mu, "mass") else mu


def wasserstein(mu, nu, oracle: DistanceOracle) -> TransportResult:
    """The 1-Wasserstein distance between two equal-mass sparse measures.

    ``mu`` and ``nu`` are ProbabilityMeasures or plain ``{vertex: mass}``
    maps with rational masses. The optimum is taken over couplings
    supported on support(mu) x support(nu), which is the whole
    transportation polytope. The result holds the value, the pivot counts,
    the family (constant in ``b``) and its optimal basis, whose flows are
    an optimal coupling and whose column prices give a dual potential. A
    zero mass in a plain map stays a row or column with no supply or
    demand; the value is that without it.
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
    family = AffineFamily(row_ids, col_ids, supply, supply, demand, demand, mass_scale)
    basis, pivots, degenerate = solve_family(family, 0, 1, oracle.table)
    return TransportResult(
        value=Fraction(basis.piece.w0, mass_scale * oracle.scale),
        pivots=pivots,
        degenerate_pivots=degenerate,
        family=family,
        basis=basis,
    )


def _cost_matrix(table, rows, cols) -> list[list[int]]:
    return [[line[y] for y in cols] for line in (table[x] for x in rows)]


class LinearPiece(namedtuple("LinearPiece", "lo_num lo_den hi_num hi_den w0 w1")):
    """W on an interval of ``b``, on ints.

    For ``b = p/q`` (``q > 0``) with ``lo_num/lo_den <= b <= hi_num/hi_den``,
    ``W(b) = ((q-p)*w0 + p*w1) / (q * scale)``, where ``scale`` is the
    common scale of the endpoint masses times the oracle's ``scale``.
    """

    __slots__ = ()

    def at(self, p: int, q: int) -> int:
        """``W(p/q) * q * scale``."""
        return (q - p) * self.w0 + p * self.w1

    def is_point(self) -> bool:
        """Whether the interval is a single ``b``."""
        return self.lo_num * self.hi_den == self.hi_num * self.lo_den


class AffineFamily(namedtuple("AffineFamily", "rows cols mu0 mu1 nu0 nu1 scale")):
    """``mu(b) = (1-b)*mu0 + b*mu1`` against ``nu(b) = (1-b)*nu0 + b*nu1``.

    ``rows`` and ``cols`` are the sorted union supports of the two sides;
    ``mu0``/``mu1`` are the row masses and ``nu0``/``nu1`` the column masses
    at b = 0 and 1, each times the int ``scale``, as lists of ints with
    zeros kept.
    """

    __slots__ = ()

    def masses(self, p: int, q: int) -> tuple[dict, dict]:
        """Row and column mass maps at ``b = p/q``, times ``q * scale``, zeros kept."""
        r = q - p
        return (
            {v: r * m0 + p * m1 for v, m0, m1 in zip(self.rows, self.mu0, self.mu1)},
            {v: r * m0 + p * m1 for v, m0, m1 in zip(self.cols, self.nu0, self.nu1)},
        )


class Basis(namedtuple("Basis", "piece parent order f0 f1 u v cost")):
    """A basis of an :class:`AffineFamily`, ranged into its piece of W.

    The basis is a spanning tree over the nodes, the rows ``0..nr-1`` and
    then the columns, hung from row 0: ``parent[x]`` is the node above x
    (-1 at the root) and ``order`` lists the nodes breadth first. Every
    other node x carries the basic cell between x and ``parent[x]``, and
    ``f0[x]``/``f1[x]`` are that cell's flow at b = 0 and b = 1 of the
    basis' affine extension, on the family's scale. ``u`` and ``v`` are
    the row and column potentials and ``cost`` the family's cost matrix, on
    the oracle's scale: ``u[0]`` is 0 and ``u[i] + v[j]`` is the cost of
    every basic cell. ``piece`` is W where the basic flows are nonnegative.
    The bases that :func:`solve_family` and :func:`dual_pivot` return are
    optimal: no cell costs less than ``u[i] + v[j]``. Every field but
    ``piece`` (a LinearPiece) is a list.
    """

    __slots__ = ()


def solve_family(family: AffineFamily, p: int, q: int, table) -> tuple[Basis, int, int]:
    """An optimal basis of ``family`` at ``b = p/q``, ranged into its piece of W,
    with the number of primal pivots it took and of those that moved no mass.

    ``table`` is the oracle's int distance table; the cost matrix is read
    from it once. The supplies and demands are the family's int masses
    blended at ``b``. Raises MassMismatch when the two sides carry
    different total masses.

    The primal simplex runs on the ranged :class:`Basis` itself, on ints
    with exact comparisons. It starts from the least-cost basis
    (``_least_cost_start``), so mass that a row and a column of one vertex
    share sits on their zero-cost cell from the outset. Each pivot prices
    by Bland's rule, climbs from both ends of the entering cell to their
    common ancestor to find the cycle, and lets the cell that loses flow
    on it with the least flow at ``b`` leave, ties to the smallest (row,
    col); :func:`_exchange` swaps the two. Bland's rule on both sides keeps
    degenerate pivots from cycling.

    Reduced costs do not depend on the masses, and the basic flows are
    affine in ``b``: the final basis stays optimal, and W stays affine,
    exactly where those flows stay nonnegative, which is its piece. Since
    W is convex in ``b``, the piece extended to [0, 1] never exceeds W.
    """
    r = q - p
    supply = [r * m0 + p * m1 for m0, m1 in zip(family.mu0, family.mu1)]
    demand = [r * m0 + p * m1 for m0, m1 in zip(family.nu0, family.nu1)]
    cost = _cost_matrix(table, family.rows, family.cols)
    nr = len(supply)
    adj = [[] for _ in range(nr + len(demand))]
    for i, j in _least_cost_start(supply, demand, cost):
        adj[i].append(nr + j)
        adj[nr + j].append(i)
    basis = _hang(family, cost, adj)
    pivots = degenerate = 0
    while (entering := _bland_entering(cost, basis.u, basis.v)) is not None:
        parent, f0, f1 = basis.parent, basis.f0, basis.f1
        position = [0] * len(parent)
        for k, x in enumerate(basis.order):
            position[x] = k
        # Climb from both ends to the common ancestor, always from the end
        # hung later. Flow leaves the cells above rows on the row's side and
        # above columns on the column's.
        a, b = entering[0], nr + entering[1]
        low = leaving = None
        while a != b:
            if position[a] > position[b]:
                x = a
                a = parent[x]
                minus = x < nr
            else:
                x = b
                b = parent[x]
                minus = x >= nr
            if minus:
                key = (r * f0[x] + p * f1[x], _cell(x, parent[x], nr))
                if leaving is None or key < leaving:
                    low, leaving = x, key
        pivots += 1
        degenerate += leaving[0] == 0
        basis = _exchange(family, basis, low, entering)
    return basis, pivots, degenerate


def _cell(x: int, p: int, nr: int) -> tuple[int, int]:
    """The (row, col) cell between node ``x`` and the node ``p`` above it."""
    return (x, p - nr) if x < nr else (p, x - nr)


def _exchange(family: AffineFamily, basis: Basis, low: int, entering: tuple) -> Basis:
    """``basis`` with the cell above node ``low`` swapped for the ``entering`` cell.

    The one change of basis, for the primal and the dual pivot alike. The
    new tree is hung from row 0, priced and ranged afresh: its potentials
    differ from the old ones only on the side that the leaving cell cuts
    off from row 0, rows by plus and columns by minus the entering cell's
    reduced cost, so that cell becomes tight.
    """
    nr = len(family.rows)
    parent = basis.parent
    adj = [[] for _ in parent]
    for x in basis.order[1:]:
        if x != low:
            adj[x].append(parent[x])
            adj[parent[x]].append(x)
    i, j = entering
    adj[i].append(nr + j)
    adj[nr + j].append(i)
    return _hang(family, basis.cost, adj)


def _hang(family: AffineFamily, cost, adj) -> Basis:
    """The spanning tree ``adj`` hung from row 0, priced and ranged into its piece of W."""
    nr = len(family.rows)
    parent = [-1] * len(adj)
    order = [0]
    u = [0] * nr
    v = [0] * (len(adj) - nr)
    for x in order:
        for y in adj[x]:
            if y != parent[x]:
                parent[y] = x
                order.append(y)
                if y < nr:
                    u[y] = cost[y][x - nr] - v[x - nr]
                else:
                    v[y - nr] = cost[x][y - nr] - u[x]
    # Net supply of each tree node at each end: row masses count plus,
    # column masses minus.
    net0 = family.mu0 + [-m for m in family.nu0]
    net1 = family.mu1 + [-m for m in family.nu1]
    lo_num, lo_den, hi_num, hi_den = 0, 1, 1, 1
    w0 = w1 = 0
    f0 = [0] * len(parent)
    f1 = [0] * len(parent)
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


def dual_pivot(family: AffineFamily, basis: Basis) -> Basis:
    """The optimal basis just past the ``lo`` end of ``basis.piece``, ranged.

    That end must lie strictly inside (0, 1). One parametric dual-simplex
    pivot:

    * the leaving cell is a basic cell whose flow is zero at the end and
      would turn negative below it;
    * removing it cuts the tree in two. The flow it carried is the net
      supply of its row's side, which below the end turns negative, so the
      entering cell runs from a row on the column's side into a column on
      the row's side: of those, the one with the least reduced cost;
    * :func:`_exchange` swaps the two cells. The entering cell becomes
      tight, which moves the potentials of the side cut off from row 0 by
      its reduced cost. Cells crossing the cut the same way lose it, cells
      crossing the other way gain it, and every other reduced cost stays
      as it was: all stay nonnegative. The new piece ends where the old
      one started.

    Reduced costs do not depend on the masses, so the new basis is optimal
    wherever its flows are nonnegative, and no optimality scan is needed.
    Where several flows reach zero at the end, the new piece may be that
    single point, and the caller pivots again. Ties are broken in (row,
    col) order on both sides: the leaving cell is the first that qualifies,
    the entering cell the first of least reduced cost. None is negative, so
    the scan stops at the first crossing cell that is already tight. That
    is Bland's rule for the dual simplex, so a run of pivots at one end
    cannot cycle.
    """
    num, den = basis.piece.lo_num, basis.piece.lo_den
    nr = len(family.rows)
    parent, order, f0, f1 = basis.parent, basis.order, basis.f0, basis.f1
    # The leaving cell is the one above node ``low``.
    low = leaving = None
    for x in order[1:]:
        s0, s1 = f0[x], f1[x]
        if s1 > s0 and (den - num) * s0 + num * s1 == 0:
            cell = _cell(x, parent[x], nr)
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
                    if not best:
                        return _exchange(family, basis, low, entering)
    return _exchange(family, basis, low, entering)


def _as_ints(values) -> tuple[list[int], int]:
    """Rationals times the lcm of their denominators, as ints, and that lcm."""
    ratios = [x.as_integer_ratio() for x in values]
    scale = math.lcm(*{d for _n, d in ratios})
    return [n * (scale // d) for n, d in ratios], scale


def _least_cost_start(supply, demand, cost) -> list[tuple[int, int]]:
    """The cells of a starting basis, allocated in (cost, row, col) order.

    Each allocation moves as much mass as its row and column both have
    left and closes one of them, the row when its supply is used up (and
    the last open column never), so the ``nr + nc - 1`` cells form a
    spanning tree, degenerate zeros included. The last cell closes the last
    row and column together. A closed line's mass left reads None.
    """
    nc = len(demand)
    s = list(supply)
    d = list(demand)
    rows_left, cols_left = len(s), nc
    flat = [c for row in cost for c in row]
    cells = []
    for k in sorted(range(len(flat)), key=flat.__getitem__):
        i = k // nc
        si = s[i]
        if si is None:
            continue
        j = k - i * nc
        dj = d[j]
        if dj is None:
            continue
        q = si if si < dj else dj
        cells.append((i, j))
        if rows_left > 1 and (cols_left == 1 or si == q):
            s[i] = None
            d[j] = dj - q
            rows_left -= 1
        elif cols_left > 1:
            d[j] = None
            s[i] = si - q
            cols_left -= 1
        else:
            break
    return cells


def _bland_entering(cost, u, v):
    """First cell in (row, col) order with a negative reduced cost.

    Basic cells have reduced cost 0, so only a nonbasic cell can qualify.
    """
    for i, (row, ui) in enumerate(zip(cost, u)):
        for j, (c, vj) in enumerate(zip(row, v)):
            if c - ui - vj < 0:
                return i, j
    return None
