"""The memoised Evaluator against the uncached limit search it replaced."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hypercurv import (
    Evaluator,
    all_pairs_distances,
    build,
    curvature_pairs,
    errors,
    load_document,
    verdict_ledger,
)
from hypercurv.cli import main
from hypercurv.curvature import DEFAULT_ALPHA_GRID, _Chain, _dyadic_index
from hypercurv.random_instances import random_directed, random_oriented_unit, random_undirected
from hypercurv.transport import AffineFamily, LinearPiece
from hypercurv.walk import spread

from conftest import (
    curvature_targets,
    directed_corpus,
    oriented_corpus,
    random_oriented_dense,
    undirected_corpus,
)
from oracles import reference_kappa, reference_lly_limit

# Overlaps the dyadic search (3/4) and includes alpha=1, so the curve and the
# limit share memo entries.
GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10), Fraction(1))


def _divergent():
    """Directed instance whose first hyperedge has negative curvature at alpha=1."""
    return build(
        "directed",
        3,
        [([0, 1], [2], 5), ([2], [0], 1), ([2], [1], 5), ([0], [2], 1)],
    )


CORPORA = {
    "undirected": lambda: undirected_corpus(7101, 5, n_max=5, extra_max=1),
    "directed": lambda: directed_corpus(7102, 5, n_max=4, m_max=6) + [_divergent()],
    "oriented": lambda: oriented_corpus(7103, 4, n_max=5, extra_max=2),
}


def _compare(hg) -> int:
    oracle = all_pairs_distances(hg)
    ev = Evaluator(hg, oracle)
    diverged = 0
    for target, variant in curvature_targets(hg, oracle):
        try:
            samples, normalized, lly, stab = reference_lly_limit(hg, oracle, target, variant, GRID)
        except errors.NoStabilization:
            with pytest.raises(errors.NoStabilization):
                ev.report(target, variant, GRID)
            diverged += 1
            continue
        rep = ev.report(target, variant, GRID)
        assert rep.curve.samples == samples, target
        assert rep.curve.normalized == normalized, target
        assert rep.lly == lly, target
        assert rep.stabilization_alpha == stab, target
    return diverged


@pytest.mark.parametrize("flavor", sorted(CORPORA))
def test_report_matches_uncached_reference(flavor):
    diverged = sum(_compare(hg) for hg in CORPORA[flavor]())
    assert (diverged > 0) == (flavor == "directed")


@pytest.mark.parametrize("flavor", sorted(CORPORA))
def test_kappa_off_the_grid_matches_fresh_solves(flavor):
    """Values read off stored linear pieces equal a fresh solve at their alpha.

    The requests of all targets of an instance come in shuffled order, so
    pieces are built from solves at varied alphas and read at others.
    """
    rng = random.Random(7106)
    for hg in CORPORA[flavor]():
        oracle = all_pairs_distances(hg)
        ev = Evaluator(hg, oracle)
        alphas = set()
        while len(alphas) < 20:
            a = Fraction(rng.randint(1, 999), 1000) + Fraction(1, rng.choice([7, 12, 2**20]))
            if a < 1:
                alphas.add(a)
        requests = [(t, v, a) for t, v in curvature_targets(hg, oracle) for a in sorted(alphas)]
        rng.shuffle(requests)
        for target, variant, a in requests:
            assert ev.kappa(target, a, variant) == reference_kappa(hg, oracle, target, a, variant)
        assert ev.stats.solve_hits > ev.stats.solves


def test_memo_solves_each_transport_once():
    hg = undirected_corpus(7105, 1, n_max=5)[0]
    ev = Evaluator(hg, all_pairs_distances(hg))
    targets = list(curvature_targets(hg, ev.oracle))
    for target, variant in targets:
        ev.report(target, variant, GRID)
    first = (ev.stats.solves, ev.stats.measures, ev.stats.limits)
    assert ev.stats.limits == len(targets) and ev.stats.limit_hits == 0
    assert ev.stats.measures <= 2 * ev.stats.solves
    for target, variant in targets:
        ev.report(target, variant, GRID)
    assert (ev.stats.solves, ev.stats.measures, ev.stats.limits) == first
    assert ev.stats.limit_hits == len(targets)


def test_divergent_edge_raises_again_from_memo():
    hg = _divergent()
    ev = Evaluator(hg, all_pairs_distances(hg))
    with pytest.raises(errors.NoStabilization):
        ev.limit(("edge", 0))
    solves = ev.stats.solves
    with pytest.raises(errors.NoStabilization):
        ev.limit(("edge", 0))
    with pytest.raises(errors.NoStabilization):
        ev.report(("edge", 0))
    assert ev.stats.solves == solves
    assert (ev.stats.limits, ev.stats.limit_hits) == (1, 2)


@pytest.mark.parametrize("flavor", sorted(CORPORA))
def test_warm_memo_never_changes_a_verdict(flavor):
    """An Evaluator that has run the ledgers at alpha 0 and 1, under every
    variant, and every limit gives the same ledger at 1/2 as a fresh one."""
    alpha = Fraction(1, 2)
    for hg in CORPORA[flavor]()[:3]:
        oracle = all_pairs_distances(hg)
        warm = Evaluator(hg, oracle)
        for a in (Fraction(0), Fraction(1)):
            for variant in ("min", "max", "sum"):
                verdict_ledger(warm, a, variant)
        for target, variant in curvature_targets(hg, oracle):
            try:
                warm.limit(target, variant)
            except errors.NoStabilization:
                pass
        assert verdict_ledger(warm, alpha) == verdict_ledger(Evaluator(hg, oracle), alpha)


@pytest.mark.parametrize("flavor", sorted(CORPORA))
def test_alpha_lo_is_where_kappa_turns_linear(flavor):
    """Fresh solves put ``alpha_lo`` where the final linear region of kappa
    starts, and the limit is certified at the first dyadic alpha past it."""
    kinked = 0
    for hg in CORPORA[flavor]():
        oracle = all_pairs_distances(hg)
        ev = Evaluator(hg, oracle)
        for target, variant in curvature_targets(hg, oracle):
            try:
                rep = ev.report(target, variant, GRID)
            except errors.NoStabilization:
                continue
            lo = rep.alpha_lo
            k = 2
            while 1 - Fraction(1, 2**k) < lo:
                k += 1
            assert rep.stabilization_alpha == 1 - Fraction(1, 2**k)

            def kappa(a):
                return reference_kappa(hg, oracle, target, a, variant)

            # kappa(1) = 0 here, so the final region is the line through (1, 0).
            slope = -kappa(lo) / (1 - lo)
            for a in (lo, (lo + 1) / 2, (lo + 3) / 4):
                assert kappa(a) == slope * (a - 1), (target, a)
            kinks = ev.breakpoints(target)
            assert lo == max(kinks, default=Fraction(0))
            if kinks:
                below = (lo + (kinks[-2] if len(kinks) > 1 else 0)) / 2
                assert kappa(below) < slope * (below - 1), (target, below)
                kinked += 1
    assert kinked > 0


LATE_LIMIT_PATH = Path(__file__).resolve().parent.parent / "data" / "late_limit_directed.json"


def test_limit_certified_past_three_quarters():
    """Edge h6 turns linear at 43/54, past 3/4, so its limit is read off
    kappa at 7/8; edge h7 has curvature -4 at alpha=1 and diverges."""
    hg = load_document(str(LATE_LIMIT_PATH)).hypergraph
    oracle = all_pairs_distances(hg)
    ev = Evaluator(hg, oracle)
    rep = ev.report(("edge", 5), "sum", GRID)
    assert (rep.lly, rep.stabilization_alpha, rep.alpha_lo) == (
        Fraction(75, 68),
        Fraction(7, 8),
        Fraction(43, 54),
    )
    assert ev.breakpoints(("edge", 5)) == [Fraction(43, 54)]
    assert (rep.curve.samples, rep.curve.normalized, rep.lly, rep.stabilization_alpha) == (
        reference_lly_limit(hg, oracle, ("edge", 5), "sum", GRID)
    )
    assert ev.kappa(("edge", 6), 1) == -4
    with pytest.raises(errors.NoStabilization, match="decreases without bound"):
        ev.limit(("edge", 6))


def test_dyadic_index_is_the_first_dyadic_alpha_at_or_past():
    rng = random.Random(7107)
    alphas = [Fraction(0), Fraction(3, 4), Fraction(7, 8), Fraction(1, 2**30)]
    alphas += [1 - Fraction(1, 2**k) + d for k in range(2, 40) for d in (Fraction(1, 2**60), 0)]
    alphas += [Fraction(rng.randint(0, 10**6), 10**6 + 1) for _ in range(500)]
    for lo in alphas:
        k = 2
        while 1 - Fraction(1, 2**k) < lo:
            k += 1
        assert _dyadic_index(lo) == k, lo


def _final_line_terms(lo: Fraction):
    """One hand-made term whose W is ``lo`` up to ``lo`` and ``alpha`` after,
    so kappa's final line, ``1 - alpha``, starts at ``lo``."""
    n, d = lo.numerator, lo.denominator
    chain = _Chain(AffineFamily([0], [1], [1], [1], [1], [1], d))
    chain.lines = [LinearPiece(0, 1, n, d, n, n), LinearPiece(n, d, 1, 1, 0, d)]
    return ((chain, 1),), 1


@pytest.mark.parametrize("late", [False, True], ids=["at-cap", "past-cap"])
def test_limit_is_certified_up_to_the_cap_and_no_further(h4, h4_oracle, monkeypatch, late):
    """The dyadic rule samples ``1 - 2**-k`` for k <= 24, so the last alpha
    that it certifies is ``1 - 2**-23``; a final line that starts past it
    does not settle."""
    last = 1 - Fraction(1, 2**23)
    lo = last + Fraction(1, 2**60) if late else last
    monkeypatch.setattr(Evaluator, "_target", lambda self, target, variant: _final_line_terms(lo))
    ev = Evaluator(h4, h4_oracle)
    if late:
        with pytest.raises(errors.NoStabilization, match=r"did not settle within k <= 24$"):
            ev.limit(("pair", 1, 2))
    else:
        assert ev.limit(("pair", 1, 2)) == (1, last)



@pytest.mark.parametrize("flavor", sorted(CORPORA))
def test_answers_do_not_depend_on_request_order_or_grid(flavor):
    """A grid that starts above ``alpha_lo``, a point value first, and the
    default grid all give one limit, certificate and ``alpha_lo``, which is
    the last breakpoint of kappa. Each order runs on a fresh Evaluator."""
    orders = [(None, (Fraction(99, 100),)), (Fraction(1, 10), None), (None, None)]
    for hg in CORPORA[flavor]():
        oracle = all_pairs_distances(hg)
        for target, variant in curvature_targets(hg, oracle):
            answers = []
            for point, grid in orders:
                ev = Evaluator(hg, oracle)
                try:
                    if point is not None:
                        ev.kappa(target, point, variant)
                    rep = ev.report(target, variant, grid)
                except errors.NoStabilization as exc:
                    answers.append(str(exc))
                    continue
                answers.append((rep.lly, rep.stabilization_alpha, rep.alpha_lo))
                kinks = ev.breakpoints(target)
                assert rep.alpha_lo == max(kinks, default=Fraction(0)), target
            assert len(set(answers)) == 1, (target, answers)


# A sampling grid that starts above 3/4, where the limit search reads.
HIGH_GRID = (Fraction(99, 100), Fraction(7, 8), Fraction(9, 10))


def _one_ended_reads(hg, oracle) -> list[tuple]:
    """Every read of the one-ended contract test, each with the lowest alpha it reads.

    Per target: kappa at 0, 1/3, 9/10 and 1, the limit, the curve on the
    default grid and on ``HIGH_GRID``, and the breakpoints.
    """
    reads = []
    for target, variant in curvature_targets(hg, oracle):
        for alpha in (Fraction(0), Fraction(1, 3), Fraction(9, 10), Fraction(1)):
            reads.append((target, variant, "kappa", alpha))
        reads.append((target, variant, "limit", Fraction(3, 4)))
        reads.append((target, variant, "curve", Fraction(0)))
        reads.append((target, variant, "high curve", min(HIGH_GRID)))
        reads.append((target, variant, "breakpoints", Fraction(0)))
    return reads


def _read(ev, target, variant, what, alpha):
    if what == "kappa":
        return ev.kappa(target, alpha, variant)
    if what == "limit":
        try:
            return ev.limit(target, variant)
        except errors.NoStabilization as exc:
            return str(exc)
    if what == "curve":
        return ev.curve_ints(target, variant)
    if what == "high curve":
        return ev.curve_ints(target, variant, HIGH_GRID)
    return ev.breakpoints(target)


def _check_chain(chain: _Chain, lowest: Fraction) -> Fraction:
    """The chain's lines are contiguous, end at 1 and start below the cold
    solve's ``b* = D/(D+1)`` and at or below ``lowest``; ``low`` is the
    basis at their start, or None exactly when they start at 0. Returns
    the start."""
    lines = chain.lines
    assert lines[-1].hi_num == lines[-1].hi_den
    for below, above in zip(lines, lines[1:]):
        assert below.hi_num * above.lo_den == above.lo_num * below.hi_den
    start = Fraction(lines[0].lo_num, lines[0].lo_den)
    total = sum(chain.family.mu0) + sum(chain.family.mu1)
    assert start < Fraction(total, total + 1)
    assert start <= lowest
    assert (chain.low is None) == (start == 0)
    if chain.low is not None:
        piece = chain.low.piece
        assert Fraction(piece.lo_num, piece.lo_den) == start
    return start


def test_chains_are_one_ended_and_their_work_does_not_depend_on_read_order():
    """Every chain is solved cold just below 1, into its final piece, and
    only ever extended downward, so three orders of one set of reads give the
    same answers and the same solves and pivots, on 75 ``random_instances``
    documents (three flavors, seeds 0-24) and on the late-limit document.
    Two orders are shuffled; the third reads the highest alpha first, so
    each chain's first read is at alpha = 1. After every read, each chain
    the read touched is checked with ``_check_chain``. A chain read first
    above 3/4 may start above 3/4: on the late-limit document some do. When
    the cold solve landed at the first alpha read, the work of 53 of the
    random documents depended on the order (of 22 in solves and primal
    pivots alone)."""
    work = ("solves", "pivots", "degenerate_pivots", "dual_pivots", "traced_pieces")
    documents = [
        ((make.__name__, seed), make(random.Random(seed)))
        for make in (random_undirected, random_directed, random_oriented_unit)
        for seed in range(25)
    ]
    documents.append((LATE_LIMIT_PATH.name, load_document(str(LATE_LIMIT_PATH)).hypergraph))
    starts = []
    for name, hg in documents:
        oracle = all_pairs_distances(hg)
        runs = []
        for order in (1, 2, None):
            reads = _one_ended_reads(hg, oracle)
            if order is None:
                reads.sort(key=lambda read: -read[3])
            else:
                random.Random(order).shuffle(reads)
            ev = Evaluator(hg, oracle)
            lowest = {}
            answers = {}
            for read in reads:
                answers[read] = _read(ev, *read)
                target, variant, _what, alpha = read
                # Every variant of a target has the same chains.
                for chain, _d in ev._target(target, variant)[0]:
                    lowest[id(chain)] = min(lowest.get(id(chain), alpha), alpha)
                    starts.append(_check_chain(chain, lowest[id(chain)]))
            runs.append((answers, [getattr(ev.stats, name) for name in work]))
        assert runs[0] == runs[1] == runs[2], name
    assert max(starts) > Fraction(3, 4)


def test_curve_ints_match_fresh_solves():
    """``curve_ints`` on the default grid and on ``HIGH_GRID`` equals kappa
    from transports solved afresh at each alpha, on ``random_instances``
    documents of all three flavors (seeds 0-11)."""
    for make in (random_undirected, random_directed, random_oriented_unit):
        for seed in range(12):
            hg = make(random.Random(seed))
            oracle = all_pairs_distances(hg)
            ev = Evaluator(hg, oracle)
            for target, variant in curvature_targets(hg, oracle):
                for grid in (DEFAULT_ALPHA_GRID, HIGH_GRID):
                    values, den = ev.curve_ints(target, variant, grid)
                    for alpha, value in zip(grid, values):
                        expected = reference_kappa(hg, oracle, target, alpha, variant)
                        assert Fraction(value, alpha.denominator * den) == expected, target


def test_alpha_lo_traces_each_chain_only_as_far_as_it_needs():
    """``report(t, grid=(99/100,))`` gives the ``alpha_lo`` of kappa's lines
    over [0, 1] on 75 ``random_instances`` documents (three flavors, seeds
    0-24), tracing a chain down only until the start of kappa's final line
    is known. That takes 1214 dual pivots, as many as before kappa had one
    reader; tracing every chain to 0 took 1553."""
    pivots = 0
    for make in (random_undirected, random_directed, random_oriented_unit):
        for seed in range(25):
            hg = make(random.Random(seed))
            oracle = all_pairs_distances(hg)
            ev, full = Evaluator(hg, oracle), Evaluator(hg, oracle)
            for target, variant in curvature_targets(hg, oracle):
                try:
                    alpha_lo = ev.report(target, variant, (Fraction(99, 100),)).alpha_lo
                except errors.NoStabilization:
                    continue
                lines, _den = full._merged(*full._target(target, variant), (0, 1))
                assert alpha_lo == Fraction(lines[-1].lo_num, lines[-1].lo_den), target
            pivots += ev.stats.dual_pivots
    assert pivots <= 1214


def _bent_terms():
    """One hand-made term whose W bends down at 7/8, where W must be convex.

    W is ``8 - 4*alpha`` up to 7/8 and ``36*(1 - alpha)`` after, so kappa's
    slope rises there.
    """
    chain = _Chain(AffineFamily([0], [1], [1], [1], [1], [1], 1))
    chain.lines = [LinearPiece(0, 1, 7, 8, 8, 4), LinearPiece(7, 8, 1, 1, 36, 0)]
    return ((chain, 36),), 36


def test_merged_refuses_lines_that_bend_kappa_up(h4, h4_oracle, monkeypatch):
    terms, length = _bent_terms()
    ev = Evaluator(h4, h4_oracle)
    with pytest.raises(errors.NotConcave, match="rises at 7/8"):
        ev._merged(terms, length, (0, 1))
    # One line has no neighbour to compare with.
    assert len(ev._merged(terms, length, (7, 8))[0]) == 1
    monkeypatch.setattr(Evaluator, "_target", lambda self, target, variant: _bent_terms())
    for _ in range(2):
        # A remembered failure is raised again with its own type.
        with pytest.raises(errors.NotConcave):
            ev.limit(("pair", 1, 2))
    assert (ev.stats.limits, ev.stats.limit_hits) == (1, 1)


def test_cli_exits_3_on_a_curve_that_is_not_concave(capsys, monkeypatch):
    monkeypatch.setattr(Evaluator, "_target", lambda self, target, variant: _bent_terms())
    path = Path(__file__).resolve().parent.parent / "data" / "h4.json"
    assert main(["curvature", str(path), "--pair", "x2,x3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "NotConcave: kappa is not concave in alpha: its slope rises at 7/8, "
        "so no limit is certified\n"
    )


DATA = Path(__file__).resolve().parent.parent / "data"
SYMMETRY_ALPHAS = (Fraction(0), Fraction(1, 3), Fraction(3, 4), Fraction(1))


def _oriented_symmetry_corpus():
    """Oriented documents, each holding every reversal with its weight."""
    hgs = [random_oriented_unit(random.Random(seed)) for seed in range(30)]
    hgs += [random_oriented_dense(random.Random(seed)) for seed in range(20)]
    for name in ("oriented_small.json", "weighted_oriented.json"):
        hgs.append(load_document(str(DATA / name)).hypergraph)
    return hgs


def _reversal(hg, e: int) -> int:
    edge = hg.edges[e]
    return next(
        r
        for r, other in enumerate(hg.edges)
        if (other.tail, other.head, other.weight) == (edge.head, edge.tail, edge.weight)
    )


def _only_chain(ev, target):
    [(chain, _d)] = ev._target(target, "sum")[0]
    return chain


def test_oriented_transport_and_its_reverse_share_one_chain():
    """On an oriented hypergraph each vertex's in-walk is its out-walk and
    the distance is symmetric, so a pair and its reverse, and a hyperedge
    and its reversal, read one chain; both orders match fresh solves of the
    real in-walk at the first end."""
    for hg in _oriented_symmetry_corpus():
        for v in range(hg.n_vertices):
            assert spread(hg, "in", v) == spread(hg, "out", v)
        oracle = all_pairs_distances(hg)
        ev = Evaluator(hg, oracle)
        targets = [("pair", u, v) for u, v in curvature_pairs(hg)]
        targets += [("edge", e) for e in range(hg.n_edges)]
        for target in targets:
            if target[0] == "pair":
                reverse = ("pair", target[2], target[1])
            else:
                reverse = ("edge", _reversal(hg, target[1]))
            assert _only_chain(ev, target) is _only_chain(ev, reverse), target
            for a in SYMMETRY_ALPHAS:
                expected = reference_kappa(hg, oracle, target, a, "sum")
                assert ev.kappa(target, a) == expected, (target, a)


def _symmetric_directed():
    """Directed, with a symmetric quasi-distance: every arc has its reversal,
    but the hyperedge {0, 1} -> 2 has none, so vertex 0's out-walk differs
    from its in-walk."""
    arcs = [([u], [v], 1) for u in range(3) for v in range(3) if u != v]
    return build("directed", 3, arcs + [([0, 1], [2], 1)])


def test_directed_pair_orders_keep_their_own_walks():
    hg = _symmetric_directed()
    oracle = all_pairs_distances(hg)
    assert oracle.symmetric
    assert spread(hg, "in", 0) != spread(hg, "out", 0)
    ev = Evaluator(hg, oracle)
    differ = 0
    for u, v in itertools.permutations(range(hg.n_vertices), 2):
        assert _only_chain(ev, ("pair", u, v)) is not _only_chain(ev, ("pair", v, u))
        for a in SYMMETRY_ALPHAS:
            kappa = ev.kappa(("pair", u, v), a)
            assert kappa == reference_kappa(hg, oracle, ("pair", u, v), a, "sum"), (u, v, a)
            differ += kappa != ev.kappa(("pair", v, u), a)
    assert differ


def _graph(n, edges):
    return build("undirected", n, [([u, v], 1) for u, v in edges])


def _complete(n):
    return _graph(n, itertools.combinations(range(n), 2)), (0, 1)


def _cycle(n):
    return _graph(n, [(i, (i + 1) % n) for i in range(n)]), (0, 1)


def _hypercube(d):
    n = 2**d
    edges = [(u, u | 1 << i) for u in range(n) for i in range(d) if not u >> i & 1]
    return _graph(n, edges), (0, 1)


def _complete_bipartite(m, n):
    return _graph(m + n, [(u, m + v) for u in range(m) for v in range(n)]), (0, m)


# The standard LLY curvatures of unit-weight graph families (Lin, Lu and
# Yau, Tohoku Math. J. 2011), at sizes past those the reference oracles reach.
CLOSED_FORMS = (
    [(_complete, (n,), Fraction(n, n - 1)) for n in (3, 5, 8, 20)]
    + [(_cycle, (4,), 1), (_cycle, (5,), Fraction(1, 2))]
    + [(_cycle, (n,), 0) for n in (6, 9, 40)]
    + [(_hypercube, (d,), Fraction(2, d)) for d in (2, 3, 4, 6)]
    + [(_complete_bipartite, mn, Fraction(2, max(mn))) for mn in ((2, 3), (3, 3), (3, 5))]
)


@pytest.mark.parametrize(
    "family, size, lly",
    CLOSED_FORMS,
    ids=["-".join([family.__name__[1:], *map(str, size)]) for family, size, _ in CLOSED_FORMS],
)
def test_graph_families_meet_their_closed_forms(family, size, lly):
    hg, (u, v) = family(*size)
    assert Evaluator(hg, all_pairs_distances(hg)).limit(("pair", u, v)).lly == lly


@pytest.mark.parametrize("k", [3, 10, 50, 200])
def test_one_hyperedge_meets_its_closed_curve(k):
    """One unit hyperedge of k vertices: the walk of x1 keeps alpha on x1 and
    spreads the rest evenly over the other k-1, so kappa of (x1, x2) is
    ``1 - |alpha - (1-alpha)/(k-1)|``, with one breakpoint at 1/k."""
    hg = build("undirected", k, [(range(k), 1)])
    ev = Evaluator(hg, all_pairs_distances(hg))
    target = ("pair", 0, 1)
    assert ev.limit(target).lly == Fraction(k, k - 1)
    assert ev.breakpoints(target) == [Fraction(1, k)]
    for alpha in (0, Fraction(1, 2 * k), Fraction(1, k), Fraction(1, 3), Fraction(3, 4), 1):
        assert ev.kappa(target, alpha) == 1 - abs(alpha - (1 - alpha) / Fraction(k - 1)), alpha
