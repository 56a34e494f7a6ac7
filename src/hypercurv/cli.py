"""Command-line interface: validate | distances | measure | curvature | bounds | sweep.

Exit codes: 0 ok, 1 violated verdict, 2 invalid input, 3 internal limit
(no stabilization). Output is byte-identical for identical (document,
config) pairs across runs and parallelism degrees. Targets are evaluated
one after another, in sorted target order, by one Evaluator per run, so
each measure, transport and limit is computed once; ``--parallel`` is
accepted and validated but does not change how a run is evaluated.
Every number is computed exactly; ``--float`` only prints it as a decimal.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from fractions import Fraction

from . import bounds as bounds_mod
from . import errors, walk
from .curvature import DEFAULT_ALPHA_GRID, EvalStats, Evaluator
from .document import ParsedDocument, load_document
from .hypergraph import DIRECTED, ORIENTED, UNDIRECTED
from .metric import all_pairs_distances
from .rational import as_alpha, format_number


class RunConfig:
    """Knobs shared by every subcommand."""

    __slots__ = ("alpha", "alpha_grid", "variant", "exact", "fmt", "strict")

    def __init__(self):
        self.alpha = Fraction(1, 2)
        self.alpha_grid = DEFAULT_ALPHA_GRID
        self.variant = "sum"
        self.exact = True  # print p/q; False prints the same values as decimals
        self.fmt = "table"
        self.strict = False

    @property
    def mode(self) -> str:
        return "exact" if self.exact else "float"

    def fmt_num(self, x) -> str:
        return format_number(x, exact=self.exact)


def _cli_alpha(flag: str, text: str) -> Fraction:
    try:
        return as_alpha(text)
    except (ValueError, ZeroDivisionError):
        raise errors.ParseError(f"{flag}: cannot read {text!r} as a rational") from None


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "alpha", None) is not None:
        cfg.alpha = _cli_alpha("--alpha", args.alpha)
    if getattr(args, "alpha_grid", None):
        tokens = args.alpha_grid.split(",")
        cfg.alpha_grid = tuple(_cli_alpha("--alpha-grid", tok) for tok in tokens)
    if getattr(args, "variant", None):
        cfg.variant = args.variant
    if getattr(args, "float", False):
        cfg.exact = False
    if getattr(args, "tol", None) is not None and not args.tol > 0:  # nan is not positive
        raise errors.ParseError("tolerance must be positive")
    if getattr(args, "format", None):
        cfg.fmt = args.format
    parallel = getattr(args, "parallel", None)
    if parallel is None:
        raw = os.environ.get("HYPERCURV_THREADS", "1")
        try:
            parallel = int(raw)
        except ValueError:
            raise errors.ParseError(f"HYPERCURV_THREADS: expected an integer, got {raw!r}") from None
    if parallel < 1:
        raise errors.ParseError("parallelism degree must be >= 1")
    cfg.strict = bool(getattr(args, "strict", False))
    return cfg


def _csv_text(comment: str, header: list[str], rows) -> str:
    """A ``# ...`` comment line, then the header and rows as quoted CSV."""
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


def cmd_validate(path: str) -> tuple[int, str]:
    doc = load_document(path)
    hg = doc.hypergraph
    kind = {UNDIRECTED: "connected", DIRECTED: "strongly connected", ORIENTED: "strongly connected"}
    return 0, (
        f"ok: flavor={hg.flavor} vertices={hg.n_vertices} "
        f"hyperedges={hg.n_edges} ({kind[hg.flavor]})"
    )


def cmd_distances(doc: ParsedDocument, cfg: RunConfig) -> tuple[int, str]:
    hg = doc.hypergraph
    oracle = all_pairs_distances(hg)
    names = doc.vertex_names
    if cfg.fmt == "csv":
        rows = (
            (names[u], names[v], cfg.fmt_num(oracle.d(u, v)))
            for u in range(hg.n_vertices)
            for v in range(hg.n_vertices)
        )
        return 0, _csv_text(f"# mode={cfg.mode}", ["u", "v", "distance"], rows)
    if cfg.fmt == "json":
        payload = {
            "mode": cfg.mode,
            "symmetric": oracle.symmetric,
            "distances": {
                names[u]: {names[v]: cfg.fmt_num(oracle.d(u, v)) for v in range(hg.n_vertices)}
                for u in range(hg.n_vertices)
            },
        }
        return 0, json.dumps(payload, indent=2)
    width = max(len(n) for n in names) + 2
    cells = [[cfg.fmt_num(oracle.d(u, v)) for v in range(hg.n_vertices)] for u in range(hg.n_vertices)]
    width = max(width, max(len(c) for row in cells for c in row) + 2)
    lines = [f"mode: {cfg.mode}  symmetric: {oracle.symmetric}"]
    lines.append("".rjust(width) + "".join(n.rjust(width) for n in names))
    for u in range(hg.n_vertices):
        lines.append(names[u].rjust(width) + "".join(c.rjust(width) for c in cells[u]))
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
            raise errors.UnknownTarget(
                "plain directed measures are hyperedge-based; use --edge/--side"
            )
    elif args.edge is not None:
        if hg.flavor == UNDIRECTED:
            raise errors.UnknownTarget("undirected measures are vertex-based; use --vertex")
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
    payload = {
        "mode": cfg.mode,
        "alpha": cfg.fmt_num(mu.alpha),
        "mass": {doc.vertex_names[v]: cfg.fmt_num(m) for v, m in sorted(mu.mass.items())},
        "total": cfg.fmt_num(mu.total()),
    }
    return 0, json.dumps(payload, indent=2)


def _curve_rows(report, cfg: RunConfig) -> list[tuple[str, str, str]]:
    """(alpha, kappa, normalized) of each curve sample; normalized is blank at alpha=1."""
    normalized = dict(report.curve.normalized)
    return [
        (cfg.fmt_num(a), cfg.fmt_num(k), cfg.fmt_num(normalized[a]) if a in normalized else "")
        for a, k in report.curve.samples
    ]


def _resolve_targets(doc: ParsedDocument, args) -> list[tuple[str, tuple]]:
    hg = doc.hypergraph
    targets: list[tuple[str, tuple]] = []

    def pair_name(u, v):
        return f"pair {doc.vertex_names[u]},{doc.vertex_names[v]}"

    if getattr(args, "all", False):
        for e, name in enumerate(doc.edge_names):
            targets.append((f"edge {name}", ("edge", e)))
        if hg.flavor == UNDIRECTED:
            for u in range(hg.n_vertices):
                for v in range(u + 1, hg.n_vertices):
                    targets.append((pair_name(u, v), ("pair", u, v)))
        elif hg.flavor == ORIENTED:
            for u in range(hg.n_vertices):
                for v in range(hg.n_vertices):
                    if u != v:
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


def cmd_curvature(doc: ParsedDocument, args, cfg: RunConfig, ev: Evaluator) -> tuple[int, str]:
    results = [
        (name, ev.report(target, cfg.variant, cfg.alpha_grid))
        for name, target in _resolve_targets(doc, args)
    ]

    if cfg.fmt == "json":
        payload = {
            "mode": cfg.mode,
            "variant": cfg.variant,
            "results": [
                {
                    "target": name,
                    "lly": cfg.fmt_num(rep.lly),
                    "stabilization_alpha": cfg.fmt_num(rep.stabilization_alpha),
                    "curve": [
                        {"alpha": a, "kappa": k, "normalized": g}
                        for a, k, g in _curve_rows(rep, cfg)
                    ],
                }
                for name, rep in results
            ],
        }
        return 0, json.dumps(payload, indent=2)
    if cfg.fmt == "csv":
        rows = []
        for name, rep in results:
            rows.extend((name, *row) for row in _curve_rows(rep, cfg))
            rows.append((name, cfg.fmt_num(rep.stabilization_alpha), "", cfg.fmt_num(rep.lly)))
        header = ["target", "alpha", "kappa", "normalized"]
        return 0, _csv_text(f"# mode={cfg.mode}", header, rows)
    lines = [f"mode: {cfg.mode}  variant: {cfg.variant}"]
    for name, rep in results:
        lines.append(
            f"{name}: lly={cfg.fmt_num(rep.lly)} "
            f"stabilization_alpha={cfg.fmt_num(rep.stabilization_alpha)}"
        )
    return 0, "\n".join(lines)


def _bounds_ledger(
    doc: ParsedDocument, cfg: RunConfig, ev: Evaluator | None = None
) -> list[bounds_mod.BoundVerdict]:
    """Every applicable verdict; each check evaluates with ``ev``, or a fresh Evaluator if None."""
    hg = doc.hypergraph
    oracle = ev.oracle if ev else all_pairs_distances(hg)
    a = cfg.alpha
    labels = bounds_mod.Labels(vertex=doc.vertex_names, edge=doc.edge_names)
    ledger: list[bounds_mod.BoundVerdict] = []
    if hg.flavor == UNDIRECTED:
        for u in range(hg.n_vertices):
            for v in range(u + 1, hg.n_vertices):
                ledger.extend(
                    bounds_mod.check_pair_upper_bound(hg, oracle, u, v, a, labels=labels, ev=ev)
                )
        for e in range(hg.n_edges):
            ledger.append(
                bounds_mod.check_edge_upper_bound(
                    hg, oracle, e, a, cfg.variant, labels=labels, ev=ev
                )
            )
        ledger.extend(
            bounds_mod.check_bonnet_myers(hg, oracle, variant=cfg.variant, labels=labels, ev=ev)
        )
        return ledger
    for e in range(hg.n_edges):
        verdict, _data = bounds_mod.check_directed_edge_bound(
            hg, oracle, e, a, labels=labels, ev=ev
        )
        ledger.append(verdict)
        if hg.flavor == ORIENTED or oracle.symmetric:
            ledger.append(
                bounds_mod.check_edge_upper_bound(hg, oracle, e, a, "min", labels=labels, ev=ev)
            )
    if hg.flavor == ORIENTED:
        for u in range(hg.n_vertices):
            for v in range(hg.n_vertices):
                if u != v:
                    ledger.extend(
                        bounds_mod.check_pair_bound_oriented(
                            hg, oracle, u, v, a, labels=labels, ev=ev
                        )
                    )
        if hg.is_unit_weight():
            ledger.append(bounds_mod.check_vertex_count(hg, oracle, ev=ev))
        else:
            ledger.append(
                bounds_mod.BoundVerdict(
                    name="vertex-count",
                    lhs=None,
                    rhs=None,
                    holds=None,
                    target="instance",
                    witness="NonUnitWeights",
                )
            )
    ledger.extend(bounds_mod.check_bonnet_myers(hg, oracle, labels=labels, ev=ev))
    return ledger


def _status(v: bounds_mod.BoundVerdict) -> str:
    if v.holds is None:
        return "not-applicable"
    return "holds" if v.holds else "violated"


def cmd_bounds(doc: ParsedDocument, cfg: RunConfig, ev: Evaluator) -> tuple[int, str]:
    ledger = _bounds_ledger(doc, cfg, ev)
    violated = [v for v in ledger if v.holds is False]
    skipped = [v for v in ledger if v.holds is None]
    code = 1 if violated or (cfg.strict and skipped) else 0
    if cfg.fmt == "json":
        payload = {
            "mode": cfg.mode,
            "alpha": cfg.fmt_num(cfg.alpha),
            "verdicts": [
                {
                    "name": v.name,
                    "target": v.target,
                    "lhs": None if v.lhs is None else cfg.fmt_num(v.lhs),
                    "rhs": None if v.rhs is None else cfg.fmt_num(v.rhs),
                    "status": _status(v),
                    "witness": v.witness,
                }
                for v in ledger
            ],
            "violated": len(violated),
            "not_applicable": len(skipped),
        }
        return code, json.dumps(payload, indent=2)
    if cfg.fmt == "csv":
        rows = (
            (
                v.name,
                v.target,
                "" if v.lhs is None else cfg.fmt_num(v.lhs),
                "" if v.rhs is None else cfg.fmt_num(v.rhs),
                _status(v),
                v.witness or "",
            )
            for v in ledger
        )
        header = ["name", "target", "lhs", "rhs", "status", "witness"]
        return code, _csv_text(f"# mode={cfg.mode}", header, rows)
    lines = [f"mode: {cfg.mode}  alpha: {cfg.fmt_num(cfg.alpha)}"]
    for v in ledger:
        lhs = "-" if v.lhs is None else cfg.fmt_num(v.lhs)
        rhs = "-" if v.rhs is None else cfg.fmt_num(v.rhs)
        note = f"  [{v.witness}]" if v.witness else ""
        lines.append(f"{_status(v):>14}  {v.name:<28} {v.target:<24} {lhs} <= {rhs}{note}")
    lines.append(f"verdicts: {len(ledger)}  violated: {len(violated)}  not-applicable: {len(skipped)}")
    return code, "\n".join(lines)


def cmd_sweep(doc: ParsedDocument, args, cfg: RunConfig, ev: Evaluator) -> tuple[int, str]:
    targets = _resolve_targets(doc, args)
    if len(targets) != 1:
        raise errors.UnknownTarget("sweep expects exactly one --pair or --edge target")
    name, target = targets[0]
    report = ev.report(target, cfg.variant, cfg.alpha_grid)
    rows = _curve_rows(report, cfg)
    stab = report.stabilization_alpha
    kappa_stab = ev.kappa(target, stab, cfg.variant)
    rows.append((cfg.fmt_num(stab), cfg.fmt_num(kappa_stab), cfg.fmt_num(report.lly)))
    header = ["alpha", "kappa", "normalized"]
    return 0, _csv_text(f"# mode={cfg.mode} target={name}", header, rows)


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
    p.add_argument(
        "--tol",
        type=float,
        help="accepted for compatibility (must be positive); has no effect on results",
    )
    p.add_argument("--format", choices=["json", "csv", "table"], help="output format")
    p.add_argument(
        "--parallel",
        type=int,
        help="accepted for compatibility (env HYPERCURV_THREADS); targets always run serially",
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

    p = sub.add_parser("validate", help="check a document against all invariants")
    _add_common(p)

    p = sub.add_parser("distances", help="all-pairs (quasi-)distance table")
    _add_common(p)

    p = sub.add_parser("measure", help="print one walk measure as JSON")
    _add_common(p)
    p.add_argument("--vertex", help="base vertex (undirected/oriented)")
    p.add_argument("--direction", choices=["in", "out"], default="out")
    p.add_argument("--edge", help="hyperedge name (directed/oriented)")
    p.add_argument("--side", choices=["tail", "head"], default="tail")
    p.add_argument("--index", type=int, help="constituent index within the side")

    p = sub.add_parser("curvature", help="alpha curves and limit curvature of targets")
    _add_common(p)
    p.add_argument("--pair", action="append", help="vertex pair 'u,v' (repeatable)")
    p.add_argument("--edge", action="append", help="hyperedge name (repeatable)")
    p.add_argument("--all", action="store_true", help="all supported targets")

    p = sub.add_parser("bounds", help="verdict ledger of every applicable inequality")
    _add_common(p)

    p = sub.add_parser("sweep", help="CSV of (alpha, kappa, normalized) for one target")
    _add_common(p)
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
    try:
        cfg = _config_from_args(args)
        if args.command == "validate":
            code, text = cmd_validate(args.path)
        else:
            doc = load_document(args.path)
            if args.command == "distances":
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
    except errors.NoStabilization as exc:
        print(f"NoStabilization: {exc}", file=sys.stderr)
        return 3
    except errors.HypercurvError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.stats:
            counters = (ev.stats if ev else EvalStats()).as_dict()
            counters["seconds"] = round(time.perf_counter() - start, 6)
            counters["startup_cpu_s"] = round(startup_cpu, 6)
            print(json.dumps(counters), file=sys.stderr)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
