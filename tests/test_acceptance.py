"""Acceptance suite: one test per exit criterion, at the stated tolerance.

Each criterion prints a single PASS/FAIL line (visible with ``pytest -s``).
Random corpora are seeded and shared through module-scoped fixtures, so
every run checks the same instances.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import pytest

from hypercurv import (
    Evaluator,
    all_pairs_distances,
    build,
    check_directed_edge_bound,
    check_vertex_count,
    curvature_pairs,
    dual_value,
    errors,
    interpolate_coupling,
    lipschitz_check,
    lly_limit,
    measure_directed_in,
    measure_directed_out,
    measure_set,
    measure_undirected,
    serialize_document,
    wasserstein,
    well_transported_pairs,
)
from hypercurv.bounds import _in_edge_pairs
from hypercurv.cli import main
from hypercurv.metric import edge_length

from conftest import (
    directed_corpus,
    graph_as_hypergraph,
    named_document,
    random_graph_edges,
    random_directed,
    random_oriented_dense,
    random_oriented_unit,
    random_undirected,
    undirected_corpus,
)
from oracles import BruteGraphCurvature

GRID = tuple(Fraction(k, 10) for k in range(10)) + (Fraction(99, 100),)


@contextmanager
def _criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\nCRITERION {num:02d} FAIL  {title}")
        raise
    print(f"\nCRITERION {num:02d} PASS  {title}")


# -- shared corpora -----------------------------------------------------------


@pytest.fixture(scope="module")
def c2_results():
    """20 random 2-uniform instances: our limit vs the independent graph oracle."""
    rng = random.Random(20002)
    t0 = time.monotonic()
    records = []
    for _ in range(20):
        n, edges = random_graph_edges(rng, n_max=8)
        hg = graph_as_hypergraph(n, edges)
        oracle = all_pairs_distances(hg)
        brute = BruteGraphCurvature(n, edges)
        for u in range(n):
            for v in range(u + 1, n):
                report = lly_limit(hg, oracle, ("pair", u, v))
                expected, _stab = brute.lly(u, v)
                records.append((report, expected))
    return time.monotonic() - t0, records


@pytest.fixture(scope="module")
def c3_corpus():
    corpus = directed_corpus(seed=30003, count=100, n_max=7, m_max=8)
    return [(hg, all_pairs_distances(hg)) for hg in corpus]


@pytest.fixture(scope="module")
def c5_corpus():
    corpus = undirected_corpus(seed=50005, count=50, n_max=7)
    return [(hg, all_pairs_distances(hg)) for hg in corpus]


# -- criteria ------------------------------------------------------------------


def test_criterion_01_worked_example_reproduction(h4, h4_oracle, tmp_path):
    with _criterion(1, "worked four-vertex example reproduced exactly, under 1 s"):
        t0 = time.monotonic()
        hg = build("undirected", 4, [([0, 1, 2], 1), ([0, 3], 1)])
        oracle = all_pairs_distances(hg)
        assert lly_limit(hg, oracle, ("pair", 1, 2)).lly == Fraction(3, 2)
        assert lly_limit(hg, oracle, ("pair", 0, 1)).lly == Fraction(1, 2)
        assert lly_limit(hg, oracle, ("pair", 0, 2)).lly == Fraction(1, 2)
        assert lly_limit(hg, oracle, ("edge", 0), variant="sum").lly == Fraction(5, 6)
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        path = tmp_path / "worked.json"
        path.write_text(json.dumps(serialize_document(named_document(hg))))
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(
                ["curvature", str(path), "--pair", "x2,x3", "--pair", "x1,x2", "--pair", "x1,x3"]
                + ["--edge", "h1", "--variant", "sum", "--float", "--format", "json"]
            )
        assert code == 0
        got = {r["target"]: float(r["lly"]) for r in json.loads(out.getvalue())["results"]}
        for target, expected in [
            ("pair x2,x3", 1.5),
            ("pair x1,x2", 0.5),
            ("pair x1,x3", 0.5),
            ("edge h1", 5 / 6),
        ]:
            assert abs(got[target] - expected) <= 1e-9


def test_criterion_02_graph_degeneration_oracle(c2_results):
    with _criterion(2, "2-uniform limits match the independent graph oracle exactly, under 30 s"):
        elapsed, records = c2_results
        assert records, "corpus is nonempty"
        for report, expected in records:
            assert report.lly == expected
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_03_directed_partition_bound(c3_corpus):
    with _criterion(3, "directed hyperedge bound holds on 100 random instances"):
        assert len(c3_corpus) == 100
        for hg, oracle in c3_corpus:
            assert hg.n_vertices <= 7 and hg.n_edges <= 8
            for e in range(hg.n_edges):
                for a in (Fraction(0), Fraction(1, 2), Fraction(3, 4)):
                    verdict, _data = check_directed_edge_bound(Evaluator(hg, oracle), e, a)
                    assert verdict.holds, (e, a, verdict)


def test_criterion_04_constituent_measure_identities(c3_corpus):
    with _criterion(4, "constituent spread identities hold exactly on the directed corpus"):
        alphas = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        for hg, _oracle in c3_corpus:
            for e, edge in enumerate(hg.edges):
                n, m = len(edge.tail), len(edge.head)
                for a in alphas:
                    for i, x in enumerate(edge.sorted_tail()):
                        mu = measure_directed_in(hg, e, i, a)
                        spread = mu.total() - mu[x]
                        assert spread == (1 - a) / n
                    for j, y in enumerate(edge.sorted_head()):
                        nu = measure_directed_out(hg, e, j, a)
                        spread = nu.total() - nu[y]
                        assert spread == (1 - a) / m


def _pair_transport_cache(hg, oracle, alphas):
    cache = {}
    n = hg.n_vertices
    for a in alphas:
        mus = [measure_undirected(hg, x, a) for x in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                cache[(u, v, a)] = wasserstein(mus[u], mus[v], oracle).value
    return cache


def test_criterion_05_monotone_and_concave(h4, h4_oracle, c5_corpus):
    with _criterion(5, "normalized curve monotone, curve midpoint-concave, on 50+1 instances"):
        mids = sorted({(a + c) / 2 for i, a in enumerate(GRID) for c in GRID[i + 1 :]})
        alphas = sorted(set(GRID) | set(mids))
        for hg, oracle in [(h4, h4_oracle)] + list(c5_corpus):
            n = hg.n_vertices
            w = _pair_transport_cache(hg, oracle, alphas)

            def kappa(target, a):
                if target[0] == "pair":
                    _, u, v = target
                    key = (min(u, v), max(u, v), a)
                    return 1 - w[key] / oracle.d(u, v)
                e = target[1]
                vs = hg.edges[e].sorted_vertices()
                defect = Fraction(0)
                for i in range(len(vs)):
                    for j in range(i + 1, len(vs)):
                        key = (vs[i], vs[j], a)
                        defect += oracle.d(vs[i], vs[j]) - w[key]
                return defect / edge_length(hg, oracle, e, "sum").value

            targets = [("pair", u, v) for u in range(n) for v in range(u + 1, n)]
            targets += [("edge", e) for e in range(hg.n_edges)]
            for target in targets:
                values = {a: kappa(target, a) for a in alphas}
                gs = [values[a] / (1 - a) for a in GRID]
                assert all(x <= y for x, y in zip(gs, gs[1:])), (target, "monotone")
                for i, a in enumerate(GRID):
                    for c in GRID[i + 1 :]:
                        mid = (a + c) / 2
                        assert 2 * values[mid] >= values[a] + values[c], (target, a, c)


def test_normalized_curve_monotone_exactly_when_kappa_at_one_is_nonnegative():
    """Monotonicity read off kappa's exact lines, not sampled on a grid.

    Extend a line of kappa to alpha = 1, where it takes the value B. On that
    line ``kappa / (1 - alpha)`` has derivative ``B / (1 - alpha)**2``, so
    the normalized curve is nondecreasing on [0, 1) exactly when every
    line's B is >= 0. Concavity puts the least B on the last line, whose B
    is kappa(1); where kappa(1) < 0 the limit search gives up.
    """
    diverging = 0
    for generate in (random_undirected, random_directed, random_oriented_unit):
        rng = random.Random(11)
        for _ in range(60):
            hg = generate(rng)
            ev = Evaluator(hg, all_pairs_distances(hg))
            targets = [("edge", e) for e in range(hg.n_edges)]
            targets += [("pair", u, v) for u, v in curvature_pairs(hg)]
            for target in targets:
                ends = [Fraction(0), *ev.breakpoints(target), Fraction(1)]
                kappa = [ev.kappa(target, a) for a in ends]
                at_one = [
                    k0 + (k1 - k0) * (1 - a0) / (a1 - a0)
                    for a0, a1, k0, k1 in zip(ends, ends[1:], kappa, kappa[1:])
                ]
                assert at_one[-1] == kappa[-1], target
                assert all(b >= 0 for b in at_one) == (kappa[-1] >= 0), target
                if kappa[-1] < 0:
                    with pytest.raises(errors.NoStabilization):
                        ev.limit(target)
                    diverging += 1
    assert diverging  # the directed corpus reaches kappa(1) < 0


def test_criterion_06_duality(c3_corpus):
    with _criterion(6, "zero duality gap (symmetric) on 200 pairs; directed witness below primal"):
        rng = random.Random(60006)
        checked = 0
        while checked < 200:
            hg = random_undirected(rng, n_max=7)
            oracle = all_pairs_distances(hg)
            vertices = range(hg.n_vertices)
            for _ in range(5):
                u, v = rng.sample(vertices, 2)
                a = Fraction(rng.randint(0, 8), 8)
                mu = measure_undirected(hg, u, a)
                nu = measure_undirected(hg, v, a)
                res = wasserstein(mu, nu, oracle)
                assert lipschitz_check(res.dual_potential, oracle)
                assert dual_value(res.dual_potential, mu, nu, oracle) == res.value
                checked += 1
        for hg, oracle in c3_corpus[:30]:
            for e, edge in enumerate(hg.edges):
                tail = edge.sorted_tail()
                phi = [-oracle.set_distance(tail, z) for z in range(hg.n_vertices)]
                assert lipschitz_check(phi, oracle)
                mu = measure_set(hg, e, "tail", Fraction(1, 2))
                nu = measure_set(hg, e, "head", Fraction(1, 2))
                primal = wasserstein(mu, nu, oracle).value
                assert dual_value(phi, mu, nu, oracle) <= primal


def test_criterion_07_bonnet_myers(h4, h4_oracle, c5_corpus):
    with _criterion(7, "diameter bound from the well-transported curvature floor"):
        wt = well_transported_pairs(h4, h4_oracle)
        floor = min(lly_limit(h4, h4_oracle, ("pair", u, v)).lly for (u, v, _e) in wt)
        assert floor == Fraction(1, 2)
        assert 2 * h4.max_weight() / floor == 4
        assert h4_oracle.diameter() == 2 <= 4
        applicable = 0
        for hg, oracle in c5_corpus:
            pairs = sorted({(u, v) for (u, v, _e) in well_transported_pairs(hg, oracle)})
            floor = min(lly_limit(hg, oracle, ("pair", u, v)).lly for (u, v) in pairs)
            if floor > 0:
                assert oracle.diameter() <= 2 * hg.max_weight() / floor
                applicable += 1
        assert applicable >= 1, "the positive-floor clause never fired"


def test_criterion_08_vertex_count(c3_corpus):
    with _criterion(8, "vertex-count bound on 30 positively curved oriented instances"):
        rng = random.Random(80008)
        kept = 0
        tried = 0
        while kept < 30:
            tried += 1
            assert tried < 500, "positive-curvature sampling stalled"
            hg = random_oriented_dense(rng)
            oracle = all_pairs_distances(hg)
            floor = min(
                lly_limit(hg, oracle, ("pair", u, v)).lly for (u, v) in _in_edge_pairs(hg)
            )
            if floor <= 0:
                continue
            verdict = check_vertex_count(Evaluator(hg, oracle))
            assert verdict.holds, (hg.n_vertices, floor, verdict)
            kept += 1


def test_criterion_09_stabilization(h4, h4_oracle, c2_results):
    with _criterion(9, "dyadic samples settle by k <= 16 for every earlier target"):
        cap = Fraction(2**15 - 1, 2**15)  # agreement at k <= 16 means alpha_(k-1) <= this
        reports = [
            lly_limit(h4, h4_oracle, ("pair", u, v)) for u in range(4) for v in range(u + 1, 4)
        ]
        reports += [lly_limit(h4, h4_oracle, ("edge", e)) for e in range(h4.n_edges)]
        reports += [report for report, _expected in c2_results[1]]
        for report in reports:
            assert report.stabilization_alpha <= cap
            assert report.stabilization_alpha <= Fraction(2**16 - 1, 2**16)


def test_criterion_10_coupling_interpolation(c3_corpus):
    with _criterion(10, "midpoint coupling mixture has exact midpoint marginals, 50 edges"):
        lam = Fraction(1, 2)  # (gamma-beta)/(gamma-alpha) for (1/4, 1/2, 3/4)
        checked = 0
        for hg, oracle in c3_corpus:
            for e in range(hg.n_edges):
                pi_a = wasserstein(
                    measure_set(hg, e, "tail", Fraction(1, 4)),
                    measure_set(hg, e, "head", Fraction(1, 4)),
                    oracle,
                ).coupling
                pi_c = wasserstein(
                    measure_set(hg, e, "tail", Fraction(3, 4)),
                    measure_set(hg, e, "head", Fraction(3, 4)),
                    oracle,
                ).coupling
                pi_b = interpolate_coupling(pi_a, pi_c, lam)
                assert pi_b.left_marginal() == measure_set(hg, e, "tail", Fraction(1, 2)).mass
                assert pi_b.right_marginal() == measure_set(hg, e, "head", Fraction(1, 2)).mass
                checked += 1
                if checked == 50:
                    break
            if checked == 50:
                break
        assert checked == 50
