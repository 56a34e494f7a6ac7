#!/usr/bin/env python3
"""Reproduce the worked four-vertex example end to end.

Builds the instance (one 3-vertex hyperedge plus one pendant edge, unit
weights), prints distances, walk measures, the full curvature table with
limits, and the bound ledger. Everything is exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from hypercurv import (
    Evaluator,
    all_pairs_distances,
    build,
    curvature_pairs,
    lly_limit,
    measure_undirected,
    verdict_ledger,
    well_transported_pairs,
)

NAMES = ["x1", "x2", "x3", "x4"]


def main() -> None:
    hg = build("undirected", 4, [([0, 1, 2], 1), ([0, 3], 1)])
    oracle = all_pairs_distances(hg)

    print("instance: h1 = {x1,x2,x3}, h2 = {x1,x4}, unit weights")
    print(f"diameter = {oracle.diameter()}, symmetric = {oracle.symmetric}\n")

    print("distance table:")
    for u in range(4):
        row = "  ".join(str(oracle.d(u, v)) for v in range(4))
        print(f"  {NAMES[u]}:  {row}")

    a = Fraction(1, 2)
    print(f"\nwalk measures at alpha = {a}:")
    for x in range(4):
        mu = measure_undirected(hg, x, a)
        body = ", ".join(f"{NAMES[v]}: {m}" for v, m in sorted(mu.mass.items()))
        print(f"  mu_{NAMES[x]} = {{{body}}}")

    print("\nlimit curvature:")
    for u, v in curvature_pairs(hg):
        limit = lly_limit(hg, oracle, ("pair", u, v))
        print(
            f"  kappa({NAMES[u]},{NAMES[v]}) = {limit.lly}"
            f"   (constant from alpha = {limit.stabilization_alpha})"
        )
    for variant in ("sum", "min"):
        limit = lly_limit(hg, oracle, ("edge", 0), variant=variant)
        print(f"  kappa(h1, {variant} length) = {limit.lly}")

    print("\nwell-transported pairs:", [
        (NAMES[u], NAMES[v], f"h{e + 1}") for (u, v, e) in well_transported_pairs(hg, oracle)
    ])

    print("\nbound ledger at alpha = 1/2:")
    for verdict in verdict_ledger(Evaluator(hg, oracle), a):
        status = "holds" if verdict.holds else ("n/a" if verdict.holds is None else "VIOLATED")
        print(f"  {status:>8}  {verdict.name:<22} {verdict.target:<22} {verdict.lhs} <= {verdict.rhs}")


if __name__ == "__main__":
    main()
