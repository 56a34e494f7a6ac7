"""Walk-measure construction: formulas, identities, affinity in alpha."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercurv import (
    build,
    errors,
    measure_directed_in,
    measure_directed_out,
    measure_oriented_pair,
    measure_set,
    measure_undirected,
)

from conftest import random_directed, random_oriented_unit

ALPHAS = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


def test_h4_measures(h4):
    a = Fraction(1, 3)
    mu = measure_undirected(h4, 0, a)
    assert mu.mass == {0: a, 1: (1 - a) / 4, 2: (1 - a) / 4, 3: (1 - a) / 2}
    mu = measure_undirected(h4, 1, a)
    assert mu.mass == {1: a, 0: (1 - a) / 2, 2: (1 - a) / 2}


def test_dirac_at_alpha_one(h4):
    mu = measure_undirected(h4, 2, 1)
    assert mu.mass == {2: Fraction(1)}


def test_alpha_out_of_range(h4):
    with pytest.raises(errors.AlphaOutOfRange):
        measure_undirected(h4, 0, Fraction(3, 2))
    with pytest.raises(errors.AlphaOutOfRange):
        measure_undirected(h4, 0, -0.25)


def test_float_alpha_is_rationalized(h4):
    mu = measure_undirected(h4, 0, 0.1)
    assert mu.alpha == Fraction(1, 10)


def test_directed_constituent_masses():
    hg = build("directed", 3, [([0], [1], 1), ([1], [2], 1), ([2], [0], 1)])
    a = Fraction(1, 4)
    # out-measure of vertex 1 within edge 0: spreads forward to 2
    nu = measure_directed_out(hg, 0, 0, a)
    assert nu.mass == {1: a, 2: 1 - a}
    # in-measure of vertex 0 within edge 0: spreads backward to 2
    mu = measure_directed_in(hg, 0, 0, a)
    assert mu.mass == {0: a, 2: 1 - a}
    with pytest.raises(errors.IndexOutOfRange):
        measure_directed_in(hg, 0, 1, a)


def test_set_measure_uniform_at_alpha_one():
    hg = build("directed", 4, [([0, 1], [2], 1), ([2], [3], 1), ([3], [0, 1], 1)])
    mu = measure_set(hg, 0, "tail", 1)
    assert mu.mass == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert mu.total() == 1


def test_set_measure_identities_random():
    rng = random.Random(2001)
    for _ in range(12):
        hg = random_directed(rng)
        for e, edge in enumerate(hg.edges):
            n, m = len(edge.tail), len(edge.head)
            for a in ALPHAS:
                for i, x in enumerate(edge.sorted_tail()):
                    mu = measure_directed_in(hg, e, i, a)
                    spread = sum(
                        (mass for v, mass in mu.mass.items() if v != x), Fraction(0)
                    )
                    assert mu[x] == a / n
                    assert spread == (1 - a) / n
                    assert mu.total() == Fraction(1, n)
                for j, y in enumerate(edge.sorted_head()):
                    nu = measure_directed_out(hg, e, j, a)
                    spread = sum(
                        (mass for v, mass in nu.mass.items() if v != y), Fraction(0)
                    )
                    assert spread == (1 - a) / m
                    assert nu.total() == Fraction(1, m)
                assert measure_set(hg, e, "tail", a).total() == 1
                assert measure_set(hg, e, "head", a).total() == 1


def test_support_containment_random():
    rng = random.Random(2002)
    for _ in range(12):
        hg = random_directed(rng)
        for e, edge in enumerate(hg.edges):
            for i, x in enumerate(edge.sorted_tail()):
                mu = measure_directed_in(hg, e, i, Fraction(1, 3))
                allowed = {x}.union(*(e.tail for e in hg.edges if x in e.head))
                assert set(mu.mass) <= allowed
            for j, y in enumerate(edge.sorted_head()):
                nu = measure_directed_out(hg, e, j, Fraction(1, 3))
                allowed = {y}.union(*(e.head for e in hg.edges if y in e.tail))
                assert set(nu.mass) <= allowed


def test_oriented_pair_measure_single_reversal_pair():
    hg = build("oriented", 2, [([0], [1], 1)], symmetrize=True)
    a = Fraction(2, 5)
    mu = measure_oriented_pair(hg, 0, a)
    assert mu.mass == {0: a, 1: 1 - a}
    assert measure_oriented_pair(hg, 0, 1).mass == {0: Fraction(1)}


def test_oriented_pair_measure_requires_oriented(h4):
    with pytest.raises(errors.NotOriented):
        measure_oriented_pair(h4, 0, Fraction(1, 2))


def test_oriented_pair_total_mass_random():
    rng = random.Random(2003)
    for _ in range(10):
        hg = random_oriented_unit(rng)
        for v in range(hg.n_vertices):
            assert measure_oriented_pair(hg, v, Fraction(3, 7)).total() == 1


def _mixture(mu, nu, lam):
    """Pointwise ``lam*mu + (1-lam)*nu``, without zero entries."""
    out = {v: lam * mu[v] + (1 - lam) * nu[v] for v in {*mu.mass, *nu.mass}}
    return {v: m for v, m in out.items() if m != 0}


@given(
    st.integers(0, 10**6),
    st.fractions(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=1),
)
@settings(max_examples=60, deadline=None)
def test_affinity_in_alpha(seed, a, c, lam):
    """measure(lam*a + (1-lam)*c) equals the pointwise mixture of measures."""
    rng = random.Random(seed)
    hg = random_directed(rng, n_max=5, m_max=6)
    b = lam * a + (1 - lam) * c
    e = rng.randrange(hg.n_edges)
    mixed = _mixture(measure_set(hg, e, "head", a), measure_set(hg, e, "head", c), lam)
    direct = measure_set(hg, e, "head", b)
    assert mixed == direct.mass


def test_multi_edge_masses_accumulate():
    hg = build("undirected", 2, [([0, 1], 1), ([0, 1], Fraction(1, 2))])
    a = Fraction(1, 3)
    mu = measure_undirected(hg, 0, a)
    # both parallel edges contribute: (1-a) * (1 + 1/2) / Deg = (1-a)
    assert mu.mass == {0: a, 1: 1 - a}


def _directed_cycle():
    return build("directed", 3, [([0], [1], 1), ([1], [2], 1), ([2], [0], 1)])


def _two_vertices():
    return build("undirected", 2, [([0, 1], 1)])


GUARDS = {
    "undirected-measure-on-directed": (
        lambda: measure_undirected(_directed_cycle(), 0, 0),
        errors.UnsupportedFlavor,
        "measure_undirected needs the undirected flavor",
    ),
    "directed-measure-on-undirected": (
        lambda: measure_directed_in(_two_vertices(), 0, 0, 0),
        errors.UnsupportedFlavor,
        "directed walk measures need a directed or oriented flavor",
    ),
    "set-measure-unknown-side": (
        lambda: measure_set(_directed_cycle(), 0, "both", 0),
        ValueError,
        "side must be 'tail' or 'head', got 'both'",
    ),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS)
def test_guards_a_library_caller_can_reach(call, error, message):
    """Each constructor refuses a flavor or a side it does not apply to."""
    with pytest.raises(error, match=message):
        call()
