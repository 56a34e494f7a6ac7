#!/usr/bin/env python3
"""Sweep the curvature bounds over random instances of all three flavors.

Generates seeded random hypergraphs, runs every applicable bound check at
a grid of alphas, and prints a verdict tally per bound name. A nonzero
exit means some applicable bound was violated, which would indicate a
solver or formula bug.

Example:
    python scripts/random_bound_sweep.py --count 40 --seed 7
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from fractions import Fraction

from hypercurv import (
    Evaluator,
    all_pairs_distances,
    build,
    check_bonnet_myers,
    check_directed_edge_bound,
    check_edge_upper_bound,
    check_pair_bound_oriented,
    check_pair_upper_bound,
    check_vertex_count,
)

ALPHAS = [Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
WEIGHTS = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(2)]


def random_undirected(rng, n_max=7):
    n = rng.randint(3, n_max)
    order = list(range(n))
    rng.shuffle(order)
    covered = [order[0]]
    edges = []
    for v in order[1:]:
        partners = rng.sample(covered, min(len(covered), rng.randint(1, 2)))
        edges.append((sorted([v, *partners]), rng.choice(WEIGHTS)))
        covered.append(v)
    for _ in range(rng.randint(0, 2)):
        size = rng.randint(2, min(3, n))
        edges.append((sorted(rng.sample(range(n), size)), rng.choice(WEIGHTS)))
    return build("undirected", n, edges)


def random_directed(rng, n_max=6, m_max=8):
    n = rng.randint(3, n_max)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [([perm[i]], [perm[(i + 1) % n]], rng.choice(WEIGHTS)) for i in range(n)]
    for _ in range(rng.randint(0, max(0, m_max - n))):
        size_a, size_b = rng.randint(1, 2), rng.randint(1, 2)
        if size_a + size_b > n:
            continue
        pick = rng.sample(range(n), size_a + size_b)
        edges.append((pick[:size_a], pick[size_a:], rng.choice(WEIGHTS)))
    return build("directed", n, edges)


def random_oriented(rng, n_max=5):
    n = rng.randint(3, n_max)
    order = list(range(n))
    rng.shuffle(order)
    edges = [([order[i]], [order[i + 1]], 1) for i in range(n - 1)]
    covered = {frozenset((order[i], order[i + 1])) for i in range(n - 1)}
    for _ in range(rng.randint(0, 3)):
        size_a, size_b = rng.randint(1, 2), rng.randint(1, 2)
        if size_a + size_b > n:
            continue
        pick = rng.sample(range(n), size_a + size_b)
        pairs = {frozenset((x, y)) for x in pick[:size_a] for y in pick[size_a:]}
        if pairs & covered:
            continue
        covered |= pairs
        edges.append((pick[:size_a], pick[size_a:], 1))
    return build("oriented", n, edges, symmetrize=True)


def sweep_instance(hg, tally):
    oracle = all_pairs_distances(hg)
    ev = Evaluator(hg, oracle)
    verdicts = []
    if hg.flavor == "undirected":
        for a in ALPHAS:
            for u in range(hg.n_vertices):
                for v in range(u + 1, hg.n_vertices):
                    verdicts.extend(check_pair_upper_bound(hg, oracle, u, v, a, ev=ev))
            for e in range(hg.n_edges):
                for variant in ("min", "sum", "max"):
                    verdicts.append(check_edge_upper_bound(hg, oracle, e, a, variant, ev=ev))
        verdicts.extend(check_bonnet_myers(hg, oracle, ev=ev))
    else:
        for a in ALPHAS:
            for e in range(hg.n_edges):
                verdict, _ = check_directed_edge_bound(hg, oracle, e, a, ev=ev)
                verdicts.append(verdict)
                if hg.flavor == "oriented":
                    verdicts.append(check_edge_upper_bound(hg, oracle, e, a, "min", ev=ev))
            if hg.flavor == "oriented":
                for u in range(hg.n_vertices):
                    for v in range(hg.n_vertices):
                        if u != v:
                            verdicts.extend(check_pair_bound_oriented(hg, oracle, u, v, a, ev=ev))
        if hg.flavor == "oriented":
            verdicts.append(check_vertex_count(hg, oracle, ev=ev))
            verdicts.extend(check_bonnet_myers(hg, oracle, ev=ev))

    bad = []
    for v in verdicts:
        status = "holds" if v.holds else ("n/a" if v.holds is None else "violated")
        tally[(v.name, status)] += 1
        if v.holds is False:
            bad.append(v)
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=20, help="instances per flavor")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    tally: Counter = Counter()
    violations = []
    for make in (random_undirected, random_directed, random_oriented):
        for _ in range(args.count):
            hg = make(rng)
            violations.extend(sweep_instance(hg, tally))

    names = sorted({name for (name, _status) in tally})
    print(f"{'bound':<30} {'holds':>8} {'violated':>9} {'n/a':>6}")
    for name in names:
        print(
            f"{name:<30} {tally[(name, 'holds')]:>8}"
            f" {tally[(name, 'violated')]:>9} {tally[(name, 'n/a')]:>6}"
        )
    if violations:
        print(f"\n{len(violations)} violated verdicts, e.g. {violations[0]}")
        return 1
    print("\nno applicable bound violated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
