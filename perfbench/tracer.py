"""Traced hypercurv run and the per-layer metrics computed from its spans.

Run as a script, this module imports hypercurv, wraps the public entry
point of every module where its callers look the name up, runs
``hypercurv.cli.main`` on the given arguments and writes the recorded
spans as JSON when the command ends::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- curvature doc.json --all

The program itself is not modified: the wrappers replace module
attributes in this process only. The modules bind each other's names with
``from ... import``, so a wrapper is installed in the module that makes
the call (``hypercurv.curvature.wasserstein``, ``hypercurv.bounds.lly_limit``,
...), not only in the module that defines the function.

Imported by ``run.py``, it turns the spans of one or more
traced runs into the per-layer metrics (``layer_metrics``).
"""

from __future__ import annotations

import inspect
import itertools
import json
import statistics
import sys
import threading
import time

# Span record fields, in the order they are written. DONE is when the
# tracer finished recording the span; the time from END to DONE is tracer
# overhead, kept out of the parent's self time.
NAME, THREAD, SPAN_ID, PARENT, START, END, INFO, DONE = range(8)


class Tracer:
    """In-memory span recorder with a per-thread stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._keys: dict[str, dict] = {}

    def key_id(self, kind: str, key) -> int:
        """Small integer naming the exact ``key`` within ``kind``."""
        with self._lock:
            table = self._keys.setdefault(kind, {})
            return table.setdefault(key, len(table))

    def wrap(self, name: str, fn, info=None):
        """``fn`` recorded as span ``name``.

        ``info(args, kwargs, result)`` adds data to the span; ``result`` is
        None when ``fn`` raised. Spans of calls that raise are kept, so the
        parent links of their children stay valid.
        """

        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = info(args, kwargs, result) if info else None
                self.spans.append(
                    [name, threading.get_ident(), span_id, parent, start, end, extra,
                     time.perf_counter()]
                )

        return traced


def _mass_key(measure) -> tuple:
    return tuple(sorted(getattr(measure, "mass", measure).items()))


def install(tracer: Tracer) -> None:
    """Wrap every module boundary the benchmark reports on."""
    from hypercurv import bounds, cli, curvature, document, hypergraph

    def solve_info(args, kwargs, result):
        mu, nu = _mass_key(args[0]), _mass_key(args[1])
        return [len(mu) * len(nu), tracer.key_id("solve", (mu, nu))]

    def measure_info(name):
        # curvature passes (hg, vertex or edge, [direction or side,] alpha) positionally.
        return lambda args, kwargs, result: tracer.key_id("measure", (name, args[1:]))

    signature = inspect.signature(curvature.lly_limit)

    def limit_info(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return tracer.key_id("limit", tuple(bound.arguments.values())[2:])  # after hg, oracle

    def verdict_count(args, kwargs, result):
        if result is None:
            return 0
        if isinstance(result, list):
            return len(result)
        return 1  # one BoundVerdict, alone or with its data

    cli.main = tracer.wrap("cli.main", cli.main)
    cli.load_document = tracer.wrap("document.load", document.load_document)
    hypergraph.build = tracer.wrap("hypergraph.build", hypergraph.build)
    cli.all_pairs_distances = tracer.wrap("metric.apsp", cli.all_pairs_distances)

    for name in ("measure_undirected", "_pair_measure", "measure_set"):
        fn = getattr(curvature, name)
        setattr(curvature, name, tracer.wrap("walk.measure", fn, measure_info(name)))
    curvature.wasserstein = tracer.wrap("transport.solve", curvature.wasserstein, solve_info)

    limit = tracer.wrap("curvature.limit", curvature.lly_limit, limit_info)
    curvature.lly_limit = limit
    bounds.lly_limit = limit
    for name in ("kappa_alpha_pair", "kappa_alpha_edge_undirected", "kappa_alpha_edge_directed"):
        setattr(bounds, name, tracer.wrap("curvature.kappa", getattr(bounds, name)))

    for name in (
        "check_pair_upper_bound",
        "check_edge_upper_bound",
        "check_directed_edge_bound",
        "check_bonnet_myers",
        "check_pair_bound_oriented",
        "check_vertex_count",
    ):
        setattr(bounds, name, tracer.wrap("bounds.check", getattr(bounds, name), verdict_count))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <hypercurv arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from hypercurv import cli

    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    return code


# -- span analysis (benchmark side) ---------------------------------------------


def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def _length(intervals) -> float:
    return sum(b - a for a, b in _union(intervals))


def _minus(span: tuple[float, float], holes) -> list[tuple[float, float]]:
    pieces = []
    cursor, end = span
    for a, b in _union(holes):
        if a > cursor:
            pieces.append((cursor, min(a, end)))
        cursor = max(cursor, b)
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_counts(spans: list[list]) -> dict:
    """Sums and distinct counts of one traced process, per layer.

    Times ending in ``_s`` are summed span durations: thread time spent
    inside the layer, waits for the interpreter lock included. ``self``
    times are wall time: the union, over all threads, of the intervals a
    layer's spans spent outside their child spans.
    """
    by_id = {s[SPAN_ID]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(s)

    def has_ancestor(s, prefix):
        parent = s[PARENT]
        while parent is not None:
            p = by_id[parent]
            if p[NAME].startswith(prefix):
                return True
            parent = p[PARENT]
        return False

    def total(name):
        return sum(s[END] - s[START] for s in spans if s[NAME] == name)

    self_pieces: dict[str, list] = {}
    for s in spans:
        holes = [(c[START], c[DONE]) for c in children.get(s[SPAN_ID], ())]
        self_pieces.setdefault(_layer(s[NAME]), []).extend(_minus((s[START], s[END]), holes))

    solves = [s for s in spans if s[NAME] == "transport.solve"]
    measures = [s for s in spans if s[NAME] == "walk.measure"]
    limits = [s for s in spans if s[NAME] == "curvature.limit"]
    bound_limits = [s for s in limits if has_ancestor(s, "bounds.")]
    return {
        "cli.self_s": _length(self_pieces.get("cli", [])),
        "document.load_s": total("document.load"),
        "hypergraph.build_s": total("hypergraph.build"),
        "metric.apsp_s": total("metric.apsp"),
        "metric.apsp_calls": sum(1 for s in spans if s[NAME] == "metric.apsp"),
        "walk.measure_s": total("walk.measure"),
        "walk.measures": len(measures),
        "walk.distinct_measures": len({s[INFO] for s in measures}),
        "transport.solve_s": total("transport.solve"),
        "transport.solves": len(solves),
        "transport.distinct_solves": len({s[INFO][1] for s in solves}),
        "transport.limit_solves": sum(1 for s in solves if has_ancestor(s, "curvature.limit")),
        "transport.cells": [s[INFO][0] for s in solves],
        "transport.solve_ms": [1000 * (s[END] - s[START]) for s in solves],
        "curvature.limit_s": total("curvature.limit"),
        "curvature.limits": len(limits),
        "curvature.distinct_limits": len({s[INFO] for s in limits}),
        "curvature.self_s": _length(self_pieces.get("curvature", [])),
        "bounds.ledger_s": total("bounds.check"),
        "bounds.verdicts": sum(s[INFO] for s in spans if s[NAME] == "bounds.check"),
        "bounds.limits": len(bound_limits),
        "bounds.distinct_limits": len({s[INFO] for s in bound_limits}),
        "bounds.self_s": _length(self_pieces.get("bounds", [])),
    }


LAYER_UNITS = {
    "cli.self_s": "s",
    "document.load_s": "s",
    "hypergraph.build_s": "s",
    "metric.apsp_s": "s",
    "metric.apsp_calls": "count",
    "walk.measure_s": "s",
    "walk.measures": "count",
    "walk.distinct_measures": "count",
    "transport.solve_s": "s",
    "transport.solves": "count",
    "transport.distinct_solves": "count",
    "transport.useful_ratio": "ratio",
    "transport.cells_mean": "count",
    "transport.cells_max": "count",
    "transport.solve_ms_p50": "ms",
    "transport.solve_ms_p99": "ms",
    "curvature.limit_s": "s",
    "curvature.limits": "count",
    "curvature.distinct_limits": "count",
    "curvature.solves_per_limit": "ratio",
    "curvature.self_s": "s",
    "bounds.ledger_s": "s",
    "bounds.verdicts": "count",
    "bounds.limits": "count",
    "bounds.distinct_limits": "count",
    "bounds.self_s": "s",
}


def layer_metrics(runs: list[dict]) -> dict[str, float]:
    """Per-invocation layer metrics of a set of traced processes.

    Times and counts are means over the processes; ratios and solve-size
    statistics pool every solve of every process.
    """
    k = len(runs)
    summed = {
        name: sum(r[name] for r in runs) / k
        for name in LAYER_UNITS
        if name in runs[0]
    }
    cells = [c for r in runs for c in r["transport.cells"]]
    solve_ms = [t for r in runs for t in r["transport.solve_ms"]]
    solves = sum(r["transport.solves"] for r in runs)
    limits = sum(r["curvature.limits"] for r in runs)
    summed["transport.useful_ratio"] = (
        sum(r["transport.distinct_solves"] for r in runs) / solves if solves else 0.0
    )
    summed["transport.cells_mean"] = statistics.fmean(cells) if cells else 0.0
    summed["transport.cells_max"] = max(cells, default=0)
    summed["transport.solve_ms_p50"] = statistics.median(solve_ms) if solve_ms else 0.0
    summed["transport.solve_ms_p99"] = _percentile(solve_ms, 0.99) if solve_ms else 0.0
    summed["curvature.solves_per_limit"] = (
        sum(r["transport.limit_solves"] for r in runs) / limits if limits else 0.0
    )
    return {name: summed[name] for name in LAYER_UNITS}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
