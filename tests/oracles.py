"""Independent brute-force oracles the test suite checks the library against.

Nothing here shares code with hypercurv internals: distances come from
sequence enumeration or Floyd-Warshall, transport optima from polytope
vertex enumeration or a dense two-phase tableau simplex, and the graph
curvature limit from a self-contained implementation, or without any limit
from the Laplacian characterisation of Münch and Wojciechowski.

Four exceptions sit at the end. ``reference_lly_limit`` is the uncached
limit search that predates :class:`hypercurv.Evaluator`; it reuses the
library's walk measures and transport solver, and checks only the
memoised evaluation layer built on top of them.
``reference_transportation_simplex`` is the Fraction simplex that the
integer transport core replaced, kept to check that core pivot for pivot.
``reference_family``, ``reference_partition_neighborhood`` and
``reference_head_spread`` are the Fraction walk measures, transport
families and ledger partitions that the integer ones replaced, kept to
check them field for field. ``coupling``, ``marginals``, ``dual_potential``,
``lipschitz``, ``dual_value`` and ``interpolate`` read the coupling and the
Kantorovich potential that certify a transport value off the optimal basis
that ``hypercurv.wasserstein`` returns, and check them by duality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product


# -- shortest hyperpaths by exhaustive sequence enumeration ------------------


def brute_hyperpath_distances(hg):
    """All-pairs minimum hyperpath cost by enumerating edge sequences.

    Sequences up to length |H| with repetition; exponential, so callers
    keep |H| small.
    """
    n, m = hg.n_vertices, hg.n_edges
    directed = hg.flavor != "undirected"
    best = [[None] * n for _ in range(n)]
    for u in range(n):
        best[u][u] = Fraction(0)

    def ends(e):
        edge = hg.edges[e]
        if directed:
            return edge.tail, edge.head
        return edge.vertices, edge.vertices

    def extend(seq, cost):
        entry, _ = ends(seq[0])
        _, exit_ = ends(seq[-1])
        for u in entry:
            for v in exit_:
                if best[u][v] is None or cost < best[u][v]:
                    best[u][v] = cost
        if len(seq) == m:
            return
        for e in range(m):
            nxt_entry, _ = ends(e)
            if exit_ & nxt_entry:
                extend(seq + [e], cost + hg.edges[e].weight)

    for e in range(m):
        extend([e], hg.edges[e].weight)
    return best


# -- transport optimum by polytope vertex enumeration -------------------------


def _peel_forest(subset, supply, demand):
    """Unique mass assignment supported on ``subset``, or None if infeasible/cyclic."""
    s = list(supply)
    d = list(demand)
    remaining = set(subset)
    mass = {}
    while remaining:
        row_count = {}
        col_count = {}
        for (i, j) in remaining:
            row_count[i] = row_count.get(i, 0) + 1
            col_count[j] = col_count.get(j, 0) + 1
        leaf = None
        for cell in sorted(remaining):
            i, j = cell
            if row_count[i] == 1 or col_count[j] == 1:
                leaf = cell
                break
        if leaf is None:
            return None  # cycle: not a vertex of the polytope
        i, j = leaf
        q = s[i] if row_count[i] == 1 else d[j]
        if q < 0:
            return None
        mass[leaf] = q
        s[i] -= q
        d[j] -= q
        if s[i] < 0 or d[j] < 0:
            return None
        remaining.remove(leaf)
    if any(x != 0 for x in s) or any(x != 0 for x in d):
        return None
    return mass


def brute_wasserstein(mu: dict, nu: dict, dist) -> Fraction:
    """Exact transport optimum by checking every forest-supported assignment.

    ``dist`` is a callable on vertex pairs. Exponential in the support
    sizes; callers keep them at 4 or below.
    """
    rows = sorted(v for v, m in mu.items() if m != 0)
    cols = sorted(v for v, m in nu.items() if m != 0)
    supply = [mu[r] for r in rows]
    demand = [nu[c] for c in cols]
    assert sum(supply) == sum(demand)
    cells = [(i, j) for i in range(len(rows)) for j in range(len(cols))]
    best = None
    for size in range(max(len(rows), len(cols)), len(rows) + len(cols)):
        for subset in combinations(cells, size):
            mass = _peel_forest(subset, supply, demand)
            if mass is None:
                continue
            value = sum(
                (q * dist(rows[i], cols[j]) for (i, j), q in mass.items()), Fraction(0)
            )
            if best is None or value < best:
                best = value
    return best


# -- dense two-phase tableau simplex ------------------------------------------


def simplex_min(c, a_rows, b):
    """min c@x subject to A x = b, x >= 0, by a two-phase tableau with Bland's rule.

    Exact Fractions throughout. Assumes the program is feasible and
    bounded, which transportation programs are.
    """
    m = len(a_rows)
    n = len(c)
    rows = [list(map(Fraction, r)) for r in a_rows]
    rhs = list(map(Fraction, b))
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    # phase-1 tableau with one artificial per row
    width = n + m
    tab = [rows[i] + [Fraction(int(k == i)) for k in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    cost1 = [Fraction(0)] * n + [Fraction(1)] * m

    def run(cost, scan_width):
        while True:
            duals = [cost[basis[i]] for i in range(m)]
            entering = None
            for j in range(scan_width):
                reduced = cost[j] - sum(duals[i] * tab[i][j] for i in range(m))
                if reduced < 0:
                    entering = j
                    break
            if entering is None:
                return
            ratio = None
            pivot_row = None
            for i in range(m):
                if tab[i][entering] > 0:
                    r = tab[i][-1] / tab[i][entering]
                    if ratio is None or r < ratio or (r == ratio and basis[i] < basis[pivot_row]):
                        ratio = r
                        pivot_row = i
            assert pivot_row is not None, "unbounded program"
            piv = tab[pivot_row][entering]
            tab[pivot_row] = [x / piv for x in tab[pivot_row]]
            for i in range(m):
                if i != pivot_row and tab[i][entering] != 0:
                    f = tab[i][entering]
                    tab[i] = [x - f * y for x, y in zip(tab[i], tab[pivot_row])]
            basis[pivot_row] = entering

    run(cost1, width)
    assert sum(cost1[basis[i]] * tab[i][-1] for i in range(m)) == 0, "infeasible program"
    # pivot lingering zero-value artificials out where possible
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tab[i][j] != 0:
                    piv = tab[i][j]
                    tab[i] = [x / piv for x in tab[i]]
                    for k in range(m):
                        if k != i and tab[k][j] != 0:
                            f = tab[k][j]
                            tab[k] = [x - f * y for x, y in zip(tab[k], tab[i])]
                    basis[i] = j
                    break

    # phase 2 scans only the real variables so artificials cannot re-enter
    cost2 = list(map(Fraction, c)) + [Fraction(0)] * m
    run(cost2, n)
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    value = sum((c[j] * x[j] for j in range(n)), Fraction(0))
    return value, x


def lp_wasserstein(mu: dict, nu: dict, dist) -> Fraction:
    """Transport optimum as an explicit equality-form LP via the tableau simplex.

    Drops the last column constraint (implied by equal totals) to keep the
    constraint matrix full-rank.
    """
    rows = sorted(v for v, m in mu.items() if m != 0)
    cols = sorted(v for v, m in nu.items() if m != 0)
    nr, nc = len(rows), len(cols)
    nvar = nr * nc
    c = [dist(rows[i], cols[j]) for i in range(nr) for j in range(nc)]
    a_rows = []
    b = []
    for i in range(nr):
        row = [Fraction(0)] * nvar
        for j in range(nc):
            row[i * nc + j] = Fraction(1)
        a_rows.append(row)
        b.append(mu[rows[i]])
    for j in range(nc - 1):
        row = [Fraction(0)] * nvar
        for i in range(nr):
            row[i * nc + j] = Fraction(1)
        a_rows.append(row)
        b.append(nu[cols[j]])
    value, _x = simplex_min(c, a_rows, b)
    return value


# -- self-contained Lin-Lu-Yau curvature on weighted graphs --------------------


class BruteGraphCurvature:
    """Independent limit-curvature oracle for simple weighted graphs.

    Distances via Floyd-Warshall, walk measures straight from their
    definition, transport via :func:`lp_wasserstein`, and the limit by
    sampling 1 - 2**-k until two consecutive normalized values agree.
    """

    def __init__(self, n: int, edges: dict):
        self.n = n
        self.edges = {frozenset(k): Fraction(w) for k, w in edges.items()}
        dist = [[None] * n for _ in range(n)]
        for u in range(n):
            dist[u][u] = Fraction(0)
        for pair, w in self.edges.items():
            u, v = sorted(pair)
            if dist[u][v] is None or w < dist[u][v]:
                dist[u][v] = dist[v][u] = w
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if dist[i][k] is None or dist[k][j] is None:
                        continue
                    through = dist[i][k] + dist[k][j]
                    if dist[i][j] is None or through < dist[i][j]:
                        dist[i][j] = through
        assert all(all(x is not None for x in row) for row in dist), "graph not connected"
        self.dist = dist
        self.degree = [Fraction(0)] * n
        for pair, w in self.edges.items():
            for u in pair:
                self.degree[u] += w

    def measure(self, x: int, alpha: Fraction) -> dict:
        out = {x: alpha}
        for pair, w in self.edges.items():
            if x in pair:
                (z,) = pair - {x}
                out[z] = out.get(z, Fraction(0)) + (1 - alpha) * w / self.degree[x]
        return {v: m for v, m in out.items() if m != 0}

    def kappa(self, u: int, v: int, alpha: Fraction) -> Fraction:
        w = lp_wasserstein(
            self.measure(u, alpha), self.measure(v, alpha), lambda a, b: self.dist[a][b]
        )
        return 1 - w / self.dist[u][v]

    def lly(self, u: int, v: int, k_max: int = 24) -> tuple[Fraction, Fraction]:
        prev = None
        prev_alpha = None
        for k in range(2, k_max + 1):
            a = Fraction(2**k - 1, 2**k)
            g = self.kappa(u, v, a) / (1 - a)
            if g == prev:
                return g, prev_alpha
            prev, prev_alpha = g, a
        raise AssertionError(f"graph oracle did not stabilize for ({u}, {v})")


# -- limit-free Lin-Lu-Yau curvature of a unit-weight graph edge -------------


def limit_free_lly(n: int, edges, x: int, y: int) -> Fraction:
    """Lin-Lu-Yau curvature of the edge xy of a connected unit-weight graph.

    Münch and Wojciechowski (Adv. Math. 2019) give it without a limit: the
    infimum of ``grad_xy Lap f`` over 1-Lipschitz f with ``grad_yx f = 1``,
    where ``grad_xy g = (g(x) - g(y)) / d(x, y)`` and ``Lap f(z)`` is the mean
    of ``f(w) - f(z)`` over the neighbours w of z. It reads f only on
    ``B1(x) ∪ B1(y)``, and every 1-Lipschitz f there extends to the whole
    graph. With f(x) = 0 the constraints are differences bounded by integer
    distances, a totally unimodular system, so the infimum is reached at an
    integer f, and ``|f(z) - f(x)| <= d(x, z)`` and ``|f(z) - f(y)| <= d(y, z)``
    bound each value. All such f are enumerated. Distances come from
    breadth-first search; ``edges`` are vertex pairs, their weights ignored.
    """
    nbrs = [set() for _ in range(n)]
    for pair in edges:
        u, v = tuple(pair)
        nbrs[u].add(v)
        nbrs[v].add(u)
    if y not in nbrs[x]:
        raise ValueError(f"({x}, {y}) is not an edge")

    def hops(source):
        dist = {source: 0}
        queue = [source]
        for z in queue:
            for w in nbrs[z]:
                if w not in dist:
                    dist[w] = dist[z] + 1
                    queue.append(w)
        return dist

    ball = sorted({x, y} | nbrs[x] | nbrs[y])
    dist = {z: hops(z) for z in ball}
    free = [z for z in ball if z not in (x, y)]
    ranges = [
        range(max(-dist[x][z], 1 - dist[y][z]), min(dist[x][z], 1 + dist[y][z]) + 1) for z in free
    ]
    best = None
    for values in product(*ranges):
        f = {x: 0, y: 1, **dict(zip(free, values))}
        if any(f[a] - f[b] > dist[a][b] for a in ball for b in ball):
            continue
        lap_x = Fraction(sum(f[w] for w in nbrs[x]), len(nbrs[x])) - f[x]
        lap_y = Fraction(sum(f[w] for w in nbrs[y]), len(nbrs[y])) - f[y]
        if best is None or lap_x - lap_y < best:
            best = lap_x - lap_y
    return best


# -- uncached reference for the memoised Evaluator ---------------------------


def _reference_pair_transport(hg, oracle, u, v, alpha):
    from hypercurv.walk import _pair_measure, measure_undirected
    from hypercurv.transport import wasserstein

    if hg.flavor == "undirected":
        mu = measure_undirected(hg, u, alpha)
        nu = measure_undirected(hg, v, alpha)
    else:
        mu = _pair_measure(hg, u, "in", alpha)
        nu = _pair_measure(hg, v, "out", alpha)
    return wasserstein(mu, nu, oracle).value


def reference_kappa(hg, oracle, target, alpha, variant):
    """``kappa_alpha`` of a target, every transport solved afresh."""
    from hypercurv.metric import edge_length
    from hypercurv.transport import wasserstein
    from hypercurv.walk import measure_set

    if target[0] == "pair":
        u, v = target[1], target[2]
        w = _reference_pair_transport(hg, oracle, u, v, alpha)
        return 1 - w / oracle.d(u, v)
    e = target[1]
    if hg.flavor == "undirected":
        vs = hg.edges[e].sorted_vertices()
        defect = Fraction(0)
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                w = _reference_pair_transport(hg, oracle, vs[i], vs[j], alpha)
                defect += oracle.d(vs[i], vs[j]) - w
        return defect / edge_length(hg, oracle, e, variant).value
    mu = measure_set(hg, e, "tail", alpha)
    nu = measure_set(hg, e, "head", alpha)
    w = wasserstein(mu, nu, oracle).value
    return 1 - w / edge_length(hg, oracle, e, "min").value


def reference_lly_limit(hg, oracle, target, variant, grid, k_max=24):
    """(samples, normalized, lly, stabilization_alpha) of one target, uncached.

    Raises ``hypercurv.errors.NoStabilization`` where the limit search does.
    """
    from hypercurv.errors import NoStabilization

    if target[0] == "edge" and hg.flavor != "undirected":
        kappa_one = reference_kappa(hg, oracle, target, Fraction(1), variant)
        if kappa_one < 0:
            raise NoStabilization(f"target {target} diverges")
    samples = []
    normalized = []
    for a in grid:
        k = reference_kappa(hg, oracle, target, a, variant)
        samples.append((a, k))
        if a != 1:
            normalized.append((a, k / (1 - a)))
    prev = None
    prev_alpha = None
    for kk in range(2, k_max + 1):
        a = Fraction(2**kk - 1, 2**kk)
        g = reference_kappa(hg, oracle, target, a, variant) / (1 - a)
        if g == prev:
            return tuple(samples), tuple(normalized), g, prev_alpha
        prev, prev_alpha = g, a
    raise NoStabilization(f"normalized curvature of {target} did not settle")


# -- reference transportation simplex ------------------------------------------
#
# The Fraction simplex that ``hypercurv.transport`` ran before its core
# moved to scaled ints, kept as it was: northwest-corner start, Bland
# entering rule, lexicographically smallest leaving cell, the whole dual
# tree rebuilt and the basis sorted on every pivot. The integer core must
# reproduce its basis, flows, duals and value exactly.


def reference_transportation_simplex(supply, demand, cost):
    """Primal simplex over a spanning-tree basis, on Fractions; returns value, flows, duals."""
    nr, nc = len(supply), len(demand)
    flows, basis = _northwest_corner(supply, demand)

    while True:
        u, v = _tree_duals(basis, cost, nr, nc)
        entering = None
        for i in range(nr):
            for j in range(nc):
                if (i, j) not in flows and cost[i][j] - u[i] - v[j] < 0:
                    entering = (i, j)
                    break
            if entering:
                break
        if entering is None:
            break
        plus, minus = _pivot_cycle(basis, entering)
        theta = min(flows[c] for c in minus)
        leaving = min(c for c in minus if flows[c] == theta)
        for c in plus:
            flows[c] = flows.get(c, Fraction(0)) + theta
        for c in minus:
            flows[c] -= theta
        del flows[leaving]
        basis.remove(leaving)
        basis.append(entering)
        basis.sort()

    value = sum((q * cost[i][j] for (i, j), q in flows.items()), Fraction(0))
    return value, flows, u, v


def _northwest_corner(supply, demand):
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
    return flows, sorted(flows)


def _tree_duals(basis, cost, nr, nc):
    adj = [[] for _ in range(nr + nc)]
    for (i, j) in basis:
        adj[i].append(nr + j)
        adj[nr + j].append(i)
    u = [None] * nr
    v = [None] * nc
    u[0] = Fraction(0)
    stack = [0]
    seen = {0}
    while stack:
        node = stack.pop()
        for nxt in adj[node]:
            if nxt in seen:
                continue
            seen.add(nxt)
            if node < nr:  # node is a row, nxt a column
                v[nxt - nr] = cost[node][nxt - nr] - u[node]
            else:
                u[nxt] = cost[nxt][node - nr] - v[node - nr]
            stack.append(nxt)
    return u, v


def _pivot_cycle(basis, entering):
    """Cells gaining/losing flow when ``entering`` joins the tree basis."""
    adj: dict[int, list[int]] = {}
    for (i, j) in basis:
        adj.setdefault(i, []).append(~j)
        adj.setdefault(~j, []).append(i)
    start, goal = entering[0], ~entering[1]
    parent = {start: None}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for nxt in adj.get(node, ()):  # deterministic: basis is kept sorted
            if nxt not in parent:
                parent[nxt] = node
                stack.append(nxt)
    path = []
    node = goal
    while node is not None:
        path.append(node)
        node = parent[node]
    path.reverse()  # row, col, row, ..., col
    cells = []
    for a, b in zip(path, path[1:]):
        row, col = (a, b) if a >= 0 else (b, a)
        cells.append((row, ~col))
    minus = cells[0::2]
    plus = [entering] + cells[1::2]
    return plus, minus


# -- Fraction walk measures, transport families and ledger partitions ----------
#
# The Fraction formulas that built the walk measures, the Evaluator's
# transport families and the bounds ledger's partition data before they
# moved to int edge weights and ``oracle.table`` ints. They read only public
# hypergraph and oracle queries, and every mass and distance is a Fraction.


def reference_measure(hg, kind, where, side, alpha):
    """``{vertex: mass}`` of one walk measure, zero masses dropped.

    ``kind`` is ``"undirected"`` (``where`` a vertex), ``"pair"`` (a vertex,
    ``side`` "in" or "out") or ``"set"`` (an edge index, ``side`` "tail" or
    "head").
    """
    a = Fraction(alpha)
    mass = {}

    def add(z, m):
        mass[z] = mass.get(z, Fraction(0)) + m

    def spread(x, direction, share):
        # Mass ``share`` in all, spread over the one-hop in- or out-neighbourhood of x.
        if direction == "in":
            incident = [hg.edges[e] for e in hg.edges_with_head(x)]
            parts = [(e.weight, e.tail) for e in incident]
        else:
            incident = [hg.edges[e] for e in hg.edges_with_tail(x)]
            parts = [(e.weight, e.head) for e in incident]
        denom = sum((w for w, _part in parts), Fraction(0))
        for w, part in parts:
            for z in part:
                add(z, share * w / (len(part) * denom))

    if kind == "undirected":
        deg = sum((hg.edges[e].weight for e in hg.edges_containing(where)), Fraction(0))
        add(where, a)
        for e in hg.edges_containing(where):
            edge = hg.edges[e]
            for z in edge.vertices:
                if z != where:
                    add(z, (1 - a) * edge.weight / ((len(edge) - 1) * deg))
    elif kind == "pair":
        add(where, a)
        spread(where, side, 1 - a)
    else:
        edge = hg.edges[where]
        part = edge.tail if side == "tail" else edge.head
        direction = "in" if side == "tail" else "out"
        for x in part:
            add(x, a / len(part))
            spread(x, direction, (1 - a) / len(part))
    return {v: m for v, m in mass.items() if m != 0}


def reference_family(hg, key):
    """``(rows, cols, mu0, mu1, nu0, nu1, scale)`` of a transport entry.

    ``key`` is ``("pair", u, v)`` or ``("edge", h)``; the masses are the
    row and column masses at alpha 0 and 1 times ``scale``, the lcm of
    every mass denominator, with zeros kept.
    """
    if key[0] == "edge":
        ends = [
            reference_measure(hg, "set", key[1], side, a) for side in ("tail", "head") for a in (0, 1)
        ]
    elif hg.flavor == "undirected":
        ends = [reference_measure(hg, "undirected", x, None, a) for x in key[1:] for a in (0, 1)]
    else:
        ends = [
            reference_measure(hg, "pair", x, side, a)
            for x, side in ((key[1], "in"), (key[2], "out"))
            for a in (0, 1)
        ]
    scale = math.lcm(*{m.denominator for mass in ends for m in mass.values()})
    rows = sorted(ends[0].keys() | ends[1].keys())
    cols = sorted(ends[2].keys() | ends[3].keys())

    def scaled(mass, support):
        return [int(mass.get(v, 0) * scale) for v in support]

    return (
        rows,
        cols,
        scaled(ends[0], rows),
        scaled(ends[1], rows),
        scaled(ends[2], cols),
        scaled(ends[3], cols),
        scale,
    )


def reference_partition_neighborhood(hg, oracle, ref, anchor):
    """``(ref, anchor, base, closer, level, farther, c1, c2)`` on Fractions.

    The out-neighbourhood of ``anchor`` (the plain one when undirected) split
    by minimum distance from the vertex or vertex set ``ref``.
    """
    ref_tuple = (ref,) if isinstance(ref, int) else tuple(sorted(set(ref)))

    def dist(z):
        return min(oracle.d(u, z) for u in ref_tuple)

    if hg.flavor == "undirected":
        neighborhood = hg.neighbors(anchor)
    else:
        neighborhood = hg.out_neighbors(anchor)
    base = dist(anchor)
    closer = frozenset(z for z in neighborhood if dist(z) < base)
    level = frozenset(z for z in neighborhood if dist(z) == base)
    farther = frozenset(z for z in neighborhood if dist(z) > base)
    c1 = base - min(dist(z) for z in closer) if closer else None
    c2 = min(dist(z) for z in farther) - base if farther else None
    return ref_tuple, anchor, base, closer, level, farther, c1, c2


def reference_head_spread(hg, y, z):
    """Total weight-over-head-size of the edges carrying y to z."""
    total = Fraction(0)
    for edge in hg.edges:
        if y in edge.tail and z in edge.head:
            total += edge.weight / len(edge.head)
    return total


# -- transport certificates ----------------------------------------------------
#
# ``wasserstein`` returns the value with the family it solved and its optimal
# basis. The coupling and the Kantorovich potential that certify the value
# are read off that basis here, and checked with nothing from the library.


def coupling(result):
    """The optimal coupling of a ``wasserstein`` result, as ``{(u, v): mass}``.

    The basic flows of the optimal basis, zero flows dropped, in (u, v) order.
    """
    family, basis = result.family, result.basis
    nr = len(family.rows)
    pi = {}
    for x in basis.order[1:]:
        if q := basis.f0[x]:
            p = basis.parent[x]
            i, j = (x, p - nr) if x < nr else (p, x - nr)
            pi[family.rows[i], family.cols[j]] = Fraction(q, family.scale)
    return dict(sorted(pi.items()))


def marginals(pi):
    """The left and right marginals of a coupling, zero masses dropped."""
    left, right = {}, {}
    for (u, v), m in pi.items():
        left[u] = left.get(u, 0) + m
        right[v] = right.get(v, 0) + m
    return {u: m for u, m in left.items() if m}, {v: m for v, m in right.items() if m}


def dual_potential(result, oracle):
    """A potential on every oracle vertex whose objective meets the value.

    The one-sided transform of the optimal column prices, ``f(z) = min_j
    d(z, y_j) - v_j``: the triangle inequality makes f 1-Lipschitz for
    every ordered pair, and complementary slackness makes its objective
    meet the primal value when the distance is symmetric.
    """
    cols, prices = result.family.cols, result.basis.v
    return {
        z: Fraction(min(row[y] - vj for y, vj in zip(cols, prices)), oracle.scale)
        for z, row in enumerate(oracle.table)
    }


def lipschitz(f, oracle):
    """Whether f(u) - f(v) <= d(u, v) for every ordered vertex pair."""
    n = oracle.n
    return all(f[u] - f[v] <= oracle.d(u, v) for u in range(n) for v in range(n) if u != v)


def dual_value(f, mu, nu):
    """The objective ``sum f * (mu - nu)``; a lower bound on the transport
    value when f is 1-Lipschitz."""
    mu, nu = getattr(mu, "mass", mu), getattr(nu, "mass", nu)
    return sum(f[v] * m for v, m in mu.items()) - sum(f[v] * m for v, m in nu.items())


def interpolate(pi_a, pi_c, lam):
    """The entrywise mixture ``lam * pi_a + (1 - lam) * pi_c``, zeros dropped.

    Its marginals are the same mixtures of the input marginals.
    """
    mixed = {
        k: lam * pi_a.get(k, 0) + (1 - lam) * pi_c.get(k, 0) for k in pi_a.keys() | pi_c.keys()
    }
    return {k: m for k, m in sorted(mixed.items()) if m}
