"""Independent brute-force oracles the test suite checks the library against.

Nothing here shares code with hypercurv internals: distances come from
sequence enumeration or Floyd-Warshall, transport optima from polytope
vertex enumeration or a dense two-phase tableau simplex, and the graph
curvature limit from a self-contained implementation.

The exception is ``reference_lly_limit`` at the end: the uncached limit
search that predates :class:`hypercurv.Evaluator`. It reuses the library's
walk measures and transport solver, and checks only the memoised
evaluation layer built on top of them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


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


# -- uncached reference for the memoised Evaluator ---------------------------


def _reference_pair_transport(hg, oracle, u, v, alpha, exact):
    from hypercurv.walk import _pair_measure, measure_undirected
    from hypercurv.transport import wasserstein

    if hg.flavor == "undirected":
        mu = measure_undirected(hg, u, alpha)
        nu = measure_undirected(hg, v, alpha)
    else:
        mu = _pair_measure(hg, u, "in", alpha)
        nu = _pair_measure(hg, v, "out", alpha)
    return wasserstein(mu, nu, oracle, exact=exact).value


def reference_kappa(hg, oracle, target, alpha, variant, exact):
    """``kappa_alpha`` of a target, every transport solved afresh."""
    from hypercurv.metric import edge_length
    from hypercurv.transport import wasserstein
    from hypercurv.walk import measure_set

    if target[0] == "pair":
        u, v = target[1], target[2]
        w = _reference_pair_transport(hg, oracle, u, v, alpha, exact)
        d = oracle.d(u, v)
        return 1 - w / d if exact else 1.0 - w / float(d)
    e = target[1]
    if hg.flavor == "undirected":
        vs = hg.edges[e].sorted_vertices()
        defect = Fraction(0) if exact else 0.0
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                w = _reference_pair_transport(hg, oracle, vs[i], vs[j], alpha, exact)
                d = oracle.d(vs[i], vs[j])
                defect += (d - w) if exact else (float(d) - w)
        length = edge_length(hg, oracle, e, variant).value
        return defect / length if exact else defect / float(length)
    mu = measure_set(hg, e, "tail", alpha)
    nu = measure_set(hg, e, "head", alpha)
    w = wasserstein(mu, nu, oracle, exact=exact).value
    length = edge_length(hg, oracle, e, "min").value
    return 1 - w / length if exact else 1.0 - w / float(length)


def reference_lly_limit(hg, oracle, target, variant, grid, k_max=24, exact=True, tol=1e-9):
    """(samples, normalized, lly, stabilization_alpha) of one target, uncached.

    Raises ``hypercurv.errors.NoStabilization`` where the limit search does.
    """
    from hypercurv.errors import NoStabilization

    if target[0] == "edge" and hg.flavor != "undirected":
        kappa_one = reference_kappa(hg, oracle, target, Fraction(1), variant, exact)
        if (kappa_one < 0) if exact else (kappa_one < -tol):
            raise NoStabilization(f"target {target} diverges")
    samples = []
    normalized = []
    for a in grid:
        k = reference_kappa(hg, oracle, target, a, variant, exact)
        samples.append((a, k))
        if a != 1:
            normalized.append((a, k / (1 - a) if exact else k / (1.0 - float(a))))
    prev = None
    prev_alpha = None
    for kk in range(2, k_max + 1):
        a = Fraction(2**kk - 1, 2**kk)
        kappa = reference_kappa(hg, oracle, target, a, variant, exact)
        g = kappa / (1 - a) if exact else kappa / (1.0 - float(a))
        settled = (g == prev) if exact else (prev is not None and abs(g - prev) <= tol)
        if settled:
            return tuple(samples), tuple(normalized), g, prev_alpha
        prev, prev_alpha = g, a
    raise NoStabilization(f"normalized curvature of {target} did not settle")
