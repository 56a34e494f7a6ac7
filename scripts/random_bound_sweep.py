#!/usr/bin/env python3
"""Sweep the curvature bounds over random instances of all three flavors.

Generates seeded random hypergraphs (``hypercurv.random_instances``), runs
the CLI's verdict ledger (``hypercurv.verdict_ledger``) at each alpha of a
grid and each length variant, and prints a tally of the distinct verdicts
per bound name. A nonzero exit means some applicable bound was violated,
which would indicate a solver or formula bug.

Example:
    python scripts/random_bound_sweep.py --count 40 --seed 7
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import partial

from hypercurv import UNDIRECTED, Evaluator, all_pairs_distances, verdict_ledger
from hypercurv.random_instances import random_directed, random_oriented_unit, random_undirected

ALPHAS = [Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
VARIANTS = ("min", "sum", "max")
GENERATORS = (
    partial(random_undirected, n_max=7),
    partial(random_directed, n_max=6),
    # simple: no vertex pair in two listed hyperedges, so the unit-weight
    # partition bounds apply.
    partial(random_oriented_unit, n_max=5, simple=True),
)


def sweep_instance(hg, tally):
    """Tally the distinct verdicts of the ledger over ALPHAS x VARIANTS; return the violated ones.

    A verdict that depends on neither alpha nor the variant is counted once.
    The variant is a length normalizer of undirected hyperedges only, so a
    directed or oriented instance runs the ledger for one variant.
    """
    ev = Evaluator(hg, all_pairs_distances(hg))
    variants = VARIANTS if hg.flavor == UNDIRECTED else VARIANTS[:1]
    # A dict, not a set: it drops repeats and keeps the ledger's order.
    verdicts = dict.fromkeys(
        v
        for a in ALPHAS
        for variant in variants
        for v in verdict_ledger(ev, a, variant)
    )
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
    for make in GENERATORS:
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
