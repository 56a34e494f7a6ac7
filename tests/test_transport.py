"""Exact transport: feasibility, optimality, duality, interpolation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercurv import all_pairs_distances, errors, measure_set, measure_undirected, wasserstein

from conftest import random_directed, random_undirected
from oracles import (
    brute_wasserstein,
    coupling,
    dual_potential,
    dual_value,
    interpolate,
    lipschitz,
    lp_wasserstein,
    marginals,
)


def _random_measure(rng, vertices, size):
    support = rng.sample(vertices, min(size, len(vertices)))
    raw = [Fraction(rng.randint(1, 9)) for _ in support]
    total = sum(raw)
    return {v: m / total for v, m in zip(support, raw)}


def test_dirac_to_dirac_is_distance(h4, h4_oracle):
    res = wasserstein({1: Fraction(1)}, {3: Fraction(1)}, h4_oracle)
    assert res.value == h4_oracle.d(1, 3) == 2
    assert coupling(res) == {(1, 3): Fraction(1)}


def test_identical_measures_zero(h4, h4_oracle):
    mu = measure_undirected(h4, 0, Fraction(1, 2))
    res = wasserstein(mu, mu, h4_oracle)
    assert res.value == 0


def test_h4_pair_transport_closed_form(h4, h4_oracle):
    for a in [Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)]:
        mu = measure_undirected(h4, 1, a)
        nu = measure_undirected(h4, 2, a)
        assert wasserstein(mu, nu, h4_oracle).value == (3 * a - 1) / 2


def test_mass_mismatch(h4, h4_oracle):
    with pytest.raises(errors.MassMismatch):
        wasserstein({0: Fraction(1)}, {1: Fraction(1, 2)}, h4_oracle)


def test_vertex_outside_oracle_raises_missing_distance(h4_oracle):
    with pytest.raises(errors.MissingDistance, match=r"\(0, 7\)"):
        wasserstein({0: Fraction(1)}, {1: Fraction(1, 2), 7: Fraction(1, 2)}, h4_oracle)
    with pytest.raises(errors.MissingDistance, match=r"\(-1, 0\)"):
        wasserstein({-1: Fraction(1)}, {0: Fraction(1)}, h4_oracle)


@pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (4, 0), (0, 4)])
def test_oracle_refuses_ids_outside_its_table(h4_oracle, u, v):
    # Negative ids must not wrap around to the last rows and columns.
    with pytest.raises(errors.MissingDistance, match=rf"\({u}, {v}\)"):
        h4_oracle.d(u, v)


def test_marginals_exact_random():
    rng = random.Random(3001)
    for _ in range(20):
        hg = random_undirected(rng)
        oracle = all_pairs_distances(hg)
        vertices = list(range(hg.n_vertices))
        mu = _random_measure(rng, vertices, rng.randint(1, min(4, len(vertices))))
        nu = _random_measure(rng, vertices, rng.randint(1, min(4, len(vertices))))
        res = wasserstein(mu, nu, oracle)
        pi = coupling(res)
        assert marginals(pi) == (
            {v: m for v, m in mu.items() if m != 0},
            {v: m for v, m in nu.items() if m != 0},
        )
        assert sum(m * oracle.d(u, v) for (u, v), m in pi.items()) == res.value


def test_optimum_matches_forest_enumeration():
    rng = random.Random(3002)
    for _ in range(25):
        hg = random_undirected(rng, n_max=6)
        oracle = all_pairs_distances(hg)
        vertices = list(range(hg.n_vertices))
        mu = _random_measure(rng, vertices, rng.randint(1, 4))
        nu = _random_measure(rng, vertices, rng.randint(1, 4))
        ours = wasserstein(mu, nu, oracle).value
        brute = brute_wasserstein(mu, nu, oracle.d)
        assert ours == brute


def test_optimum_matches_tableau_simplex_directed():
    rng = random.Random(3003)
    for _ in range(10):
        hg = random_directed(rng, n_max=5, m_max=6)
        oracle = all_pairs_distances(hg)
        e = rng.randrange(hg.n_edges)
        a = Fraction(rng.randint(0, 4), 4)
        mu = measure_set(hg, e, "tail", a)
        nu = measure_set(hg, e, "head", a)
        ours = wasserstein(mu, nu, oracle).value
        assert ours == lp_wasserstein(mu.mass, nu.mass, oracle.d)


def test_triangle_inequality_of_w():
    rng = random.Random(3004)
    hg = random_undirected(rng, n_max=6)
    oracle = all_pairs_distances(hg)
    vertices = list(range(hg.n_vertices))
    for _ in range(15):
        mu = _random_measure(rng, vertices, 3)
        nu = _random_measure(rng, vertices, 3)
        sigma = _random_measure(rng, vertices, 3)
        w_direct = wasserstein(mu, sigma, oracle).value
        w_via = wasserstein(mu, nu, oracle).value + wasserstein(nu, sigma, oracle).value
        assert w_direct <= w_via


def test_lipschitz_check(h4, h4_oracle):
    assert lipschitz([0, 0, 0, 0], h4_oracle)
    phi = [-h4_oracle.set_distance([0, 1], z) for z in range(4)]
    assert lipschitz(phi, h4_oracle)
    bad = [0, 0, 0, h4_oracle.d(3, 0) + 1]
    assert not lipschitz(bad, h4_oracle)


def test_potential_achieves_value_symmetric():
    rng = random.Random(3005)
    for _ in range(15):
        hg = random_undirected(rng)
        oracle = all_pairs_distances(hg)
        vertices = list(range(hg.n_vertices))
        mu = _random_measure(rng, vertices, rng.randint(1, 4))
        nu = _random_measure(rng, vertices, rng.randint(1, 4))
        res = wasserstein(mu, nu, oracle)
        f = dual_potential(res, oracle)
        assert lipschitz(f, oracle)
        assert dual_value(f, mu, nu) == res.value


def test_dual_never_exceeds_primal_asymmetric():
    rng = random.Random(3006)
    for _ in range(10):
        hg = random_directed(rng)
        oracle = all_pairs_distances(hg)
        e = rng.randrange(hg.n_edges)
        mu = measure_set(hg, e, "tail", Fraction(1, 2))
        nu = measure_set(hg, e, "head", Fraction(1, 2))
        res = wasserstein(mu, nu, oracle)
        # the tail-set distance drop is the canonical asymmetric witness
        tail = hg.edges[e].sorted_tail()
        phi = [-oracle.set_distance(tail, z) for z in range(hg.n_vertices)]
        assert lipschitz(phi, oracle)
        assert dual_value(phi, mu, nu) <= res.value
        f = dual_potential(res, oracle)
        assert lipschitz(f, oracle)
        assert dual_value(f, mu, nu) <= res.value


def test_interpolate_coupling_endpoints_and_marginals():
    rng = random.Random(3007)
    hg = random_directed(rng)
    oracle = all_pairs_distances(hg)
    e = rng.randrange(hg.n_edges)
    mu_a = measure_set(hg, e, "tail", Fraction(1, 4))
    nu_a = measure_set(hg, e, "head", Fraction(1, 4))
    mu_c = measure_set(hg, e, "tail", Fraction(3, 4))
    nu_c = measure_set(hg, e, "head", Fraction(3, 4))
    pi_a = coupling(wasserstein(mu_a, nu_a, oracle))
    pi_c = coupling(wasserstein(mu_c, nu_c, oracle))
    assert interpolate(pi_a, pi_c, 1) == pi_a
    assert interpolate(pi_a, pi_c, 0) == pi_c
    pi_b = interpolate(pi_a, pi_c, Fraction(1, 2))
    mu_b = measure_set(hg, e, "tail", Fraction(1, 2))
    nu_b = measure_set(hg, e, "head", Fraction(1, 2))
    assert marginals(pi_b) == (mu_b.mass, nu_b.mass)


@given(st.integers(0, 10**6), st.fractions(min_value=0, max_value=1))
@settings(max_examples=40, deadline=None)
def test_weak_duality_random_potentials(seed, scale):
    """Any distance-to-a-point potential stays below the transport value."""
    rng = random.Random(seed)
    hg = random_undirected(rng, n_max=5, extra_max=1)
    oracle = all_pairs_distances(hg)
    u, v = rng.sample(range(hg.n_vertices), 2)
    base = rng.randrange(hg.n_vertices)
    mu = measure_undirected(hg, u, Fraction(1, 3))
    nu = measure_undirected(hg, v, Fraction(1, 3))
    f = [scale * oracle.d(z, base) for z in range(hg.n_vertices)]
    res = wasserstein(mu, nu, oracle)
    assert lipschitz(f, oracle)
    assert dual_value(f, mu, nu) <= res.value


def test_degenerate_ties_fuzz_against_forest_oracle():
    """Uniform masses, tied costs, and overlapping supports hit the simplex's
    degenerate pivots; the optimum, marginals, and potential must all hold up."""
    from hypercurv.metric import DistanceOracle

    rng = random.Random(424242)
    for _ in range(60):
        n = rng.randint(2, 6)
        d = [
            [Fraction(0) if i == j else Fraction(rng.randint(1, 3)) for j in range(n)]
            for i in range(n)
        ]
        if rng.random() < 0.5:
            for i in range(n):
                for j in range(i):
                    d[i][j] = d[j][i]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if d[i][k] + d[k][j] < d[i][j]:
                        d[i][j] = d[i][k] + d[k][j]
        oracle = DistanceOracle(
            dist=tuple(tuple(r) for r in d),
            symmetric=all(d[i][j] == d[j][i] for i in range(n) for j in range(n)),
        )
        size_a = rng.randint(1, min(4, n))
        size_b = rng.randint(1, min(4, n))
        mu = {v: Fraction(1, size_a) for v in rng.sample(range(n), size_a)}
        nu = {v: Fraction(1, size_b) for v in rng.sample(range(n), size_b)}
        res = wasserstein(mu, nu, oracle)
        assert res.value == brute_wasserstein(mu, nu, oracle.d)
        assert marginals(coupling(res)) == (mu, nu)
        f = dual_potential(res, oracle)
        assert lipschitz(f, oracle)
        assert dual_value(f, mu, nu) <= res.value
