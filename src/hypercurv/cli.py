"""Command-line interface: validate | distances | measure | curvature | bounds | sweep.

Exit codes: 0 ok, 1 violated verdict, 2 invalid input, 3 internal limit
(no stabilization). Output is byte-identical for identical (document,
flags) pairs across runs. Targets are evaluated one after another, in
sorted target order, by one Evaluator per run, so each measure, transport
and limit is computed once. ``curvature --all`` takes the pairs of
``curvature.curvature_pairs`` and ``bounds`` prints
``bounds.verdict_ledger``. ``--parallel`` is accepted and validated but
does not change how a run is evaluated. Every number is computed exactly;
``--float`` only prints it as a decimal.

``curvature`` and ``sweep`` print each curve sample from the ints of
``Evaluator.curve_ints``, reduced by one gcd (or divided once under
``--float``), with no Fraction per sample; the ``curvature`` table prints
only limits, so it reads no curve. Curvature JSON is written result by
result from a fixed text template; every other JSON payload is printed by
``json.dumps``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from . import bounds as bounds_mod
from . import errors, walk
from .curvature import DEFAULT_ALPHA_GRID, EvalStats, Evaluator, curvature_pairs
from .document import ParsedDocument, load_document
from .hypergraph import ORIENTED, UNDIRECTED
from .metric import all_pairs_distances
from .rational import as_alpha


def _exact_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for ``den > 0``, after one gcd."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _float_text(num: int, den: int) -> str:
    """``repr(float(Fraction(num, den)))``: int division rounds the exact quotient once."""
    return repr(num / den)


class RunConfig:
    """Knobs shared by every subcommand, and when its evaluation ended.

    ``fmt_ratio`` prints the exact value ``num / den`` of two ints, with
    ``den > 0``, as ``p/q`` in lowest terms, or under ``--float`` (``mode``
    "float") as the repr of its nearest float; ``fmt_num`` prints a Fraction
    or int by the same rule. A subcommand sets ``evaluated_at``
    (``time.perf_counter()``) once every value it prints is computed; what
    follows is rendering (``--stats`` reports it as ``render_s``).
    """

    __slots__ = (
        "alpha", "alpha_grid", "variant", "mode", "fmt_ratio", "fmt", "strict", "evaluated_at"
    )

    def __init__(self):
        self.alpha = Fraction(1, 2)
        self.alpha_grid = DEFAULT_ALPHA_GRID
        self.variant = "sum"
        self.mode = "exact"
        self.fmt_ratio = _exact_text
        self.fmt = "table"
        self.strict = False
        self.evaluated_at = None

    def fmt_num(self, x) -> str:
        return self.fmt_ratio(x.numerator, x.denominator)


def _cli_alpha(flag: str, text: str) -> Fraction:
    try:
        return as_alpha(text)
    except (ValueError, ZeroDivisionError):
        raise errors.ParseError(f"{flag}: cannot read {text!r} as a rational") from None


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if args.alpha is not None:
        cfg.alpha = _cli_alpha("--alpha", args.alpha)
    if args.alpha_grid is not None:
        tokens = args.alpha_grid.split(",")
        cfg.alpha_grid = tuple(_cli_alpha("--alpha-grid", tok) for tok in tokens)
    if args.variant:
        cfg.variant = args.variant
    if args.float:
        if args.exact:
            raise errors.ParseError("--exact and --float exclude each other")
        cfg.mode = "float"
        cfg.fmt_ratio = _float_text
    if args.format:
        cfg.fmt = args.format
    if args.parallel is not None and args.parallel < 1:
        raise errors.ParseError("parallelism degree must be >= 1")
    cfg.strict = args.strict
    return cfg


def _csv_text(comment: str, header: list[str], rows) -> str:
    """A ``# ...`` comment line, then the header and rows as quoted CSV; None is a blank field."""
    # Imported here: loading csv at start-up raises the peak RSS of every
    # run by about 0.2 MiB, and only CSV output needs it.
    import csv

    out = io.StringIO()
    out.write(comment + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()[:-1]


# -- subcommands -----------------------------------------------------------


def cmd_validate(doc: ParsedDocument, cfg: RunConfig) -> tuple[int, str]:
    cfg.evaluated_at = time.perf_counter()
    hg = doc.hypergraph
    kind = "connected" if hg.flavor == UNDIRECTED else "strongly connected"
    return 0, f"ok: flavor={hg.flavor} vertices={hg.n_vertices} hyperedges={hg.n_edges} ({kind})"


def cmd_distances(doc: ParsedDocument, cfg: RunConfig) -> tuple[int, str]:
    hg = doc.hypergraph
    oracle = all_pairs_distances(hg)
    cfg.evaluated_at = time.perf_counter()
    names = doc.vertex_names
    vertices = range(hg.n_vertices)
    scale, fmt_ratio = oracle.scale, cfg.fmt_ratio
    cells = [[fmt_ratio(x, scale) for x in row] for row in oracle.table]
    if cfg.fmt == "csv":
        rows = ((names[u], names[v], cells[u][v]) for u in vertices for v in vertices)
        return 0, _csv_text(f"# mode={cfg.mode}", ["u", "v", "distance"], rows)
    if cfg.fmt == "json":
        payload = {
            "mode": cfg.mode,
            "symmetric": oracle.symmetric,
            "distances": {names[u]: dict(zip(names, cells[u])) for u in vertices},
        }
        return 0, json.dumps(payload, indent=2)
    width = max(len(c) for c in [*names, *(c for row in cells for c in row)]) + 2
    lines = [f"mode: {cfg.mode}  symmetric: {oracle.symmetric}"]
    for name, row in [("", names), *zip(names, cells)]:
        lines.append(name.rjust(width) + "".join(c.rjust(width) for c in row))
    return 0, "\n".join(lines)


def cmd_measure(doc: ParsedDocument, args, cfg: RunConfig) -> tuple[int, str]:
    hg = doc.hypergraph
    if args.vertex is not None:
        v = doc.vertex_id(args.vertex)
        if hg.flavor == UNDIRECTED:
            mu = walk.measure_undirected(hg, v, cfg.alpha)
        elif hg.flavor == ORIENTED:
            mu = walk.measure_oriented_pair(hg, v, args.direction, cfg.alpha)
        else:
            raise errors.UnsupportedFlavor(
                "plain directed measures are hyperedge-based; use --edge/--side"
            )
    elif args.edge is not None:
        if hg.flavor == UNDIRECTED:
            raise errors.UnsupportedFlavor("undirected measures are vertex-based; use --vertex")
        e = doc.edge_id(args.edge)
        if args.index is not None:
            if args.side == "tail":
                mu = walk.measure_directed_in(hg, e, args.index, cfg.alpha)
            else:
                mu = walk.measure_directed_out(hg, e, args.index, cfg.alpha)
        else:
            mu = walk.measure_set(hg, e, args.side, cfg.alpha)
    else:
        raise errors.UnknownTarget("measure needs --vertex or --edge")
    cfg.evaluated_at = time.perf_counter()
    payload = {
        "mode": cfg.mode,
        "alpha": cfg.fmt_num(mu.alpha),
        "mass": {doc.vertex_names[v]: cfg.fmt_num(m) for v, m in sorted(mu.mass.items())},
        "total": cfg.fmt_num(mu.total()),
    }
    return 0, json.dumps(payload, indent=2)


_CURVE_HEADER = ["alpha", "kappa", "normalized"]


def _grid_factors(cfg: RunConfig) -> list[tuple[str, int, int]]:
    """Each alpha ``p/q`` of the run's grid as printed, with ``q`` and ``q - p``.

    A curve value ``v`` over ``den`` (``Evaluator.curve_ints``) is kappa
    ``v / (q * den)`` and normalized ``v / ((q - p) * den)``; ``q - p`` is 0
    at alpha=1, which has no normalized value.
    """
    return [
        (cfg.fmt_num(a), a.denominator, a.denominator - a.numerator) for a in cfg.alpha_grid
    ]


def _sample_rows(cfg: RunConfig, grid, curve) -> list[tuple[str, str, str | None]]:
    """(alpha, kappa, normalized) texts of each sample of ``curve = (values, den)``."""
    ratio = cfg.fmt_ratio
    values, den = curve
    return [
        (a, ratio(v, q * den), ratio(v, r * den) if r else None)
        for (a, q, r), v in zip(grid, values)
    ]


def _curvature_json(cfg: RunConfig, grid, results) -> str:
    """``json.dumps(payload, indent=2)`` of the curvature payload, written result by
    result from a template.

    Number texts hold only digits, ``-``, ``/``, ``.``, ``e`` and ``+``, so
    they are written between quotes as they are; names are JSON-encoded.
    """
    fmt = cfg.fmt_num
    records = []
    for name, found, curve in results:
        samples = ",\n".join(
            f'        {{\n          "alpha": "{a}",\n          "kappa": "{k}",\n'
            f'          "normalized": {"null" if g is None else _json_str(g)}\n        }}'
            for a, k, g in _sample_rows(cfg, grid, curve)
        )
        records.append(
            f'    {{\n      "target": {_json_str(name)},\n      "lly": "{fmt(found.lly)}",\n'
            f'      "stabilization_alpha": "{fmt(found.stabilization_alpha)}",\n'
            f'      "curve": [\n{samples}\n      ]\n    }}'
        )
    head = f'{{\n  "mode": "{cfg.mode}",\n  "variant": "{cfg.variant}",\n  "results": [\n'
    return head + ",\n".join(records) + "\n  ]\n}"


def _resolve_targets(doc: ParsedDocument, args) -> list[tuple[str, tuple]]:
    hg = doc.hypergraph
    targets: list[tuple[str, tuple]] = []

    def pair_name(u, v):
        return f"pair {doc.vertex_names[u]},{doc.vertex_names[v]}"

    if getattr(args, "all", False):
        for e, name in enumerate(doc.edge_names):
            targets.append((f"edge {name}", ("edge", e)))
        for u, v in curvature_pairs(hg):
            targets.append((pair_name(u, v), ("pair", u, v)))
    for token in getattr(args, "pair", None) or []:
        parts = token.split(",")
        if len(parts) != 2:
            raise errors.UnknownTarget(f"--pair expects 'u,v', got {token!r}")
        u, v = doc.vertex_id(parts[0].strip()), doc.vertex_id(parts[1].strip())
        if u == v:
            raise errors.SamePair(f"pair target needs two distinct vertices, got {token!r}")
        targets.append((pair_name(u, v), ("pair", u, v)))
    for token in getattr(args, "edge", None) or []:
        targets.append((f"edge {token}", ("edge", doc.edge_id(token))))
    if not targets:
        raise errors.UnknownTarget("no curvature targets: use --pair, --edge, or --all")
    targets.sort(key=lambda t: t[0])
    return targets


def _limit(ev: Evaluator, name: str, target: tuple, variant: str):
    """``ev.limit(target, variant)``; a NoStabilization names the target as stdout does."""
    try:
        return ev.limit(target, variant)
    except errors.NoStabilization as exc:
        raise exc.named(name) from None


def cmd_curvature(doc: ParsedDocument, args, cfg: RunConfig, ev: Evaluator) -> tuple[int, str]:
    # The table prints only limits, so it reads no curve.
    table = cfg.fmt == "table"
    results = [
        (
            name,
            _limit(ev, name, target, cfg.variant),
            None if table else ev.curve_ints(target, cfg.variant, cfg.alpha_grid),
        )
        for name, target in _resolve_targets(doc, args)
    ]
    cfg.evaluated_at = time.perf_counter()
    fmt = cfg.fmt_num
    if table:
        lines = [f"mode: {cfg.mode}  variant: {cfg.variant}"]
        lines.extend(
            f"{name}: lly={fmt(found.lly)} stabilization_alpha={fmt(found.stabilization_alpha)}"
            for name, found, _curve in results
        )
        return 0, "\n".join(lines)
    grid = _grid_factors(cfg)
    if cfg.fmt == "json":
        return 0, _curvature_json(cfg, grid, results)
    records = []
    for name, found, curve in results:
        records.extend((name, *sample) for sample in _sample_rows(cfg, grid, curve))
        records.append((name, fmt(found.stabilization_alpha), None, fmt(found.lly)))
    return 0, _csv_text(f"# mode={cfg.mode}", ["target", *_CURVE_HEADER], records)


def cmd_bounds(doc: ParsedDocument, cfg: RunConfig, ev: Evaluator) -> tuple[int, str]:
    labels = bounds_mod.Labels(vertex=doc.vertex_names, edge=doc.edge_names)
    ledger = bounds_mod.verdict_ledger(ev, cfg.alpha, cfg.variant, labels)
    cfg.evaluated_at = time.perf_counter()
    violated = [v for v in ledger if v.holds is False]
    skipped = [v for v in ledger if v.holds is None]
    code = 1 if violated or (cfg.strict and skipped) else 0
    fmt = cfg.fmt_num
    header = ["name", "target", "lhs", "rhs", "status", "witness"]
    # Read once by the one printer that runs, so no row outlives its line.
    rows = (
        (
            v.name,
            v.target,
            None if v.lhs is None else fmt(v.lhs),
            None if v.rhs is None else fmt(v.rhs),
            "not-applicable" if v.holds is None else "holds" if v.holds else "violated",
            v.witness,
        )
        for v in ledger
    )
    if cfg.fmt == "json":
        payload = {
            "mode": cfg.mode,
            "alpha": fmt(cfg.alpha),
            "verdicts": [dict(zip(header, row)) for row in rows],
            "violated": len(violated),
            "not_applicable": len(skipped),
        }
        return code, json.dumps(payload, indent=2)
    if cfg.fmt == "csv":
        return code, _csv_text(f"# mode={cfg.mode}", header, rows)
    lines = [f"mode: {cfg.mode}  alpha: {fmt(cfg.alpha)}"]
    for name, target, lhs, rhs, status, witness in rows:
        note = f"  [{witness}]" if witness else ""
        lines.append(f"{status:>14}  {name:<28} {target:<24} {lhs or '-'} <= {rhs or '-'}{note}")
    lines.append(f"verdicts: {len(ledger)}  violated: {len(violated)}  not-applicable: {len(skipped)}")
    return code, "\n".join(lines)


def cmd_sweep(doc: ParsedDocument, args, cfg: RunConfig, ev: Evaluator) -> tuple[int, str]:
    targets = _resolve_targets(doc, args)
    if len(targets) != 1:
        raise errors.UnknownTarget("sweep expects exactly one --pair or --edge target")
    name, target = targets[0]
    found = _limit(ev, name, target, cfg.variant)
    curve = ev.curve_ints(target, cfg.variant, cfg.alpha_grid)
    stab = found.stabilization_alpha
    kappa_stab = ev.kappa(target, stab, cfg.variant)
    cfg.evaluated_at = time.perf_counter()
    fmt = cfg.fmt_num
    rows = _sample_rows(cfg, _grid_factors(cfg), curve)
    rows.append((fmt(stab), fmt(kappa_stab), fmt(found.lly)))
    return 0, _csv_text(f"# mode={cfg.mode} target={name}", _CURVE_HEADER, rows)


# -- argument parsing ----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", help="hypergraph JSON document")
    p.add_argument("--alpha", help="laziness parameter (rational or decimal)")
    p.add_argument("--alpha-grid", dest="alpha_grid", help="comma-separated alphas for curves")
    p.add_argument("--variant", choices=["min", "sum", "max"], help="hyperedge length variant")
    p.add_argument("--exact", action="store_true", help="print exact rationals p/q (default)")
    p.add_argument(
        "--float", action="store_true", help="print the exactly computed values as decimals"
    )
    p.add_argument("--format", choices=["json", "csv", "table"], help="output format")
    p.add_argument(
        "--parallel",
        type=int,
        help="accepted for compatibility (must be >= 1); targets always run serially",
    )
    p.add_argument("--strict", action="store_true", help="not-applicable verdicts also fail")
    p.add_argument(
        "--stats", action="store_true", help="print evaluation counters as JSON on stderr"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercurv",
        description="Curvature toolkit for weighted undirected, directed, and oriented hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The shared options are built once and copied into each subcommand.
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common)

    def add(name: str, summary: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], help=summary)

    add("validate", "check a document against all invariants")
    add("distances", "all-pairs (quasi-)distance table")

    p = add("measure", "print one walk measure as JSON")
    p.add_argument("--vertex", help="base vertex (undirected/oriented)")
    p.add_argument("--direction", choices=["in", "out"], default="out")
    p.add_argument("--edge", help="hyperedge name (directed/oriented)")
    p.add_argument("--side", choices=["tail", "head"], default="tail")
    p.add_argument("--index", type=int, help="constituent index within the side")

    p = add("curvature", "alpha curves and limit curvature of targets")
    p.add_argument("--pair", action="append", help="vertex pair 'u,v' (repeatable)")
    p.add_argument("--edge", action="append", help="hyperedge name (repeatable)")
    p.add_argument("--all", action="store_true", help="all supported targets")

    add("bounds", "verdict ledger of every applicable inequality")

    p = add("sweep", "CSV of (alpha, kappa, normalized) for one target")
    p.add_argument("--pair", action="append", help="vertex pair 'u,v'")
    p.add_argument("--edge", action="append", help="hyperedge name")

    return parser


def main(argv=None) -> int:
    # CPU spent before main: interpreter, site and imports in a fresh
    # process; when main is called in-process, all of the caller's CPU.
    startup_cpu = time.process_time()
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    ev = None
    render_s = 0.0
    try:
        cfg = _config_from_args(args)
        doc = load_document(args.path)
        if args.command == "validate":
            code, text = cmd_validate(doc, cfg)
        elif args.command == "distances":
            code, text = cmd_distances(doc, cfg)
        elif args.command == "measure":
            code, text = cmd_measure(doc, args, cfg)
        else:
            hg = doc.hypergraph
            ev = Evaluator(hg, all_pairs_distances(hg))
            if args.command == "curvature":
                code, text = cmd_curvature(doc, args, cfg, ev)
            elif args.command == "bounds":
                code, text = cmd_bounds(doc, cfg, ev)
            else:
                code, text = cmd_sweep(doc, args, cfg, ev)
        render_s = time.perf_counter() - cfg.evaluated_at
    except errors.NoStabilization as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except errors.HypercurvError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A valid document too large to evaluate is huge input, not a verdict.
        print(f"MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    finally:
        if args.stats:
            counters = (ev.stats if ev else EvalStats()).as_dict()
            counters["seconds"] = round(time.perf_counter() - start, 6)
            counters["startup_cpu_s"] = round(startup_cpu, 6)
            counters["render_s"] = round(render_s, 6)
            print(json.dumps(counters), file=sys.stderr)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early. Point the descriptor at devnull so
        # the flush at interpreter exit stays silent; the code stands.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
