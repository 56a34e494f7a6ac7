#!/usr/bin/env python3
"""hypercurv benchmark: seeded documents, the CLI as users run it, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload undirected-all --seed 3 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke            # every workload on tiny documents
    python3 perfbench/run.py --record           # rewrite perfbench/digests.json

From ``--seed`` the benchmark makes a stream of documents of the
workload's shape and runs ``python -m hypercurv.cli`` on them, one fresh
process per document and one process at a time (a closed loop with a
single client), with ``PYTHONPATH`` pointing at the checkout's ``src``. It
stops at the invocation that ends nearest to ``--seconds``; a fast program
cycles through the stream again. One document's run time differs from
another's by 4-9% (see ``generate``), so a run spreads over many
documents rather than repeating a few. Every invocation's exit code and stdout are
checked. The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over the run's invocations (``attempted`` is the sample count):

* ``wall_s``: seconds from spawning the CLI to its exit, at the reference
  host speed (below);
* ``cpu_s``: user + system CPU seconds of the child (``os.wait4``), at the
  reference host speed;
* ``peak_rss_mb``: the child's maximum resident set size, in MiB;
* ``setup_s``: median wall time of ``hypercurv validate`` on the
  workload's documents (start-up, import, parse, build, connectivity), at
  the reference host speed, after one discarded warm-up that compiles the
  ``.pyc`` files.

Host speed. On a shared host one CPU runs the same document 1.5-2x slower
in some phases than in others, for seconds to minutes at a time, and the
other CPU need not follow. The benchmark therefore pins itself and its
children to one CPU, and while a child runs, a thread of the benchmark
times a fixed piece of ``Fraction`` arithmetic on that CPU, taking 2% of
it. A child's times are multiplied by its speed, ``PROBE_REF_S`` over the
probe's mean time: they are what the child would take where the probe takes
``PROBE_REF_S``. Less work in the program still shows in full, since the
probe does not change with it; a program that used a second CPU would not
gain from it here. The unscaled medians and the median speed are printed
on a line of their own before the result.

An invocation fails on a wrong exit code or a failed output check; it is
counted in ``failed`` out of ``attempted`` (the failure ratio), never
raised.

With ``--trace 1`` every plain invocation is followed by a traced one on
the same document. A traced invocation runs ``perfbench/tracer.py``, which
wraps the entry points of ``cli``, ``document``, ``hypergraph``,
``metric``, ``walk``, ``transport``, ``curvature`` and ``bounds`` from
outside the program and records spans. The metrics are the per-layer ones
of ``tracer.LAYER_UNITS`` plus ``trace.overhead_s``, the median of traced
minus plain ``wall_s`` over the document pairs. The layer times are as the
traced child measured them, not scaled to the reference speed, so they
compare the layers of one run. What each layer metric should move:

* ``cli.self_s`` (target resolution, rendering, pool waits): ``wall_s`` on
  ``undirected-all-par2`` and ``undirected-all``;
* ``document.load_s``, ``hypergraph.build_s``: ``setup_s`` everywhere;
* ``metric.apsp_*``: ``wall_s`` on ``large-sweep``, nothing elsewhere;
* ``walk.*``: ``wall_s`` on ``undirected-all`` and ``oriented-bounds``;
* ``transport.*``: ``wall_s``/``cpu_s`` on ``large-sweep`` and
  ``undirected-all``; ``transport.solve_ms_p50`` on ``oriented-bounds``
  guards per-solve overhead;
* ``curvature.*``: ``wall_s`` on the three serial workloads;
* ``bounds.*``: ``wall_s`` on ``oriented-bounds``.

A layer a workload never enters reports 0. On ``undirected-all-par2``,
``transport.solve_s`` minus its value on ``undirected-all`` is the time the
two threads spent waiting for the interpreter lock.

For the default seed every document and every stdout must match the
digests in ``perfbench/digests.json``, so a drifting generator or a
changed output is caught. For other seeds the digests are printed, so two
versions of the program can be compared; ``undirected-all-par2`` and
``undirected-all`` share their documents, so their digests must agree too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import generate
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / "work"
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 1
DOCS = 32  # documents per seed
SMOKE_DOCS = 2
REFERENCE_DOCS = 2  # documents a reference workload also runs on, for other seeds
MIN_INVOCATIONS = 3
SETUP_REPEATS = 11
PROBE_SHARE = 0.02  # of the child's CPU that the speed probe takes
PROBE_REF_S = 0.0006  # CPU seconds of one probe at the reference speed
_PROBE_RNG = random.Random(0)
PROBE_FRACTIONS = [Fraction(_PROBE_RNG.randint(1, 50), _PROBE_RNG.randint(1, 50)) for _ in range(24)]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its documents and the CLI command run on each."""

    name: str
    make: Callable[[int], dict]  # document of a given index
    make_smoke: Callable[[int], dict]
    command: str
    argv: Callable[[dict], list]  # CLI arguments after the document path
    reference: str | None = None  # workload whose stdout this one must reproduce
    ledger: bool = False  # stdout is a bounds ledger that must report no violation


def _tiny_undirected(k: int) -> dict:
    return generate.undirected_all(k, n=6, m=4, profile=None)


def _curvature_all(doc: dict) -> list[str]:
    return ["--all", "--format", "json"]


def _top_pair(doc: dict) -> list[str]:
    return ["--pair", ",".join(generate.top_degree_pair(doc))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "undirected-all",
            generate.undirected_all,
            _tiny_undirected,
            "curvature",
            _curvature_all,
        ),
        Workload(
            "oriented-bounds",
            generate.oriented_bounds,
            lambda k: generate.oriented_bounds(k, n=5, extra=1, profile=None),
            "bounds",
            lambda doc: [],
            ledger=True,
        ),
        Workload(
            "large-sweep",
            generate.sparse_undirected,
            lambda k: generate.sparse_undirected(k, n=16, m=24, hub_degree=3),
            "sweep",
            _top_pair,
        ),
        Workload(
            "undirected-all-par2",
            generate.undirected_all,
            _tiny_undirected,
            "curvature",
            lambda doc: [*_curvature_all(doc), "--parallel", "2"],
            reference="undirected-all",
        ),
    )
}


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    speed: float  # host speed while it ran, from ``spawn``

    @property
    def ref_wall(self) -> float:
        return self.wall * self.speed

    @property
    def ref_cpu(self) -> float:
        return self.cpu * self.speed


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _doc_bytes(doc: dict) -> bytes:
    return json.dumps(doc, indent=1).encode()


def child_env() -> dict:
    """Environment of every child: the checkout's sources, no thread override."""
    env = dict(os.environ)
    env.pop("HYPERCURV_THREADS", None)
    env.pop("PYTHONHASHSEED", None)  # byte-identical output must not depend on it
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # cache bytecode, as an installed package does
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _probe_chunk() -> float:
    """CPU seconds this thread takes for a fixed piece of exact rational arithmetic.

    hypercurv spends its time in ``Fraction`` arithmetic, and so does the
    probe: a plain integer loop slows down less than the program does when
    the host is busy.
    """
    start = time.thread_time()
    total = Fraction(0)
    for a in PROBE_FRACTIONS[:16]:
        for b in PROBE_FRACTIONS[16:]:
            total += a * b - b
    return time.thread_time() - start


def _probe(stop: threading.Event, chunks: list[float]) -> None:
    # The pause scales with the chunk, so the probe takes the same share of
    # the CPU however fast the host runs, and slows the child evenly.
    while True:
        chunks.append(_probe_chunk())
        if stop.wait(chunks[-1] * (1 / PROBE_SHARE - 1)):
            return


def spawn(args: list[str], env: dict, tag: str) -> tuple[float, object, int, bytes, float]:
    """Run one child to its exit; wall seconds, rusage, exit code, stdout, speed.

    While the child runs, a thread of this process that shares the child's
    CPU times a fixed piece of work now and then. Speed is the
    reference time of that work over its mean measured time: below 1 while
    the host runs the CPU slower than at the reference. The probe shares
    the child's CPU because ``pin_to_one_cpu`` pinned this process, whose
    children inherit it.
    """
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    stop, chunks = threading.Event(), []
    prober = threading.Thread(target=_probe, args=(stop, chunks))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        prober.start()
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=ROOT)
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            stop.set()
            prober.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    speed = PROBE_REF_S / statistics.fmean(chunks)
    return wall, usage, proc.returncode, out_path.read_bytes(), speed


class Runner:
    """Runs and checks the invocations of one workload on its documents."""

    def __init__(self, workload: Workload, seed: int, smoke: bool):
        self.workload = workload
        self.env = child_env()
        count = SMOKE_DOCS if smoke else DOCS
        make = workload.make_smoke if smoke else workload.make
        self.docs = [make(seed * count + i) for i in range(count)]
        self.paths = []
        for i, doc in enumerate(self.docs):
            path = WORK / f"doc{i}.json"
            path.write_bytes(_doc_bytes(doc))
            self.paths.append(path)
        self.expected: list[str | None] = [None] * count
        self.attempted = 0
        self.failed = 0

    def cli_args(self, i: int, workload: Workload) -> list[str]:
        return [workload.command, str(self.paths[i]), *workload.argv(self.docs[i])]

    def invoke(self, i: int, spans: Path | None = None) -> Sample:
        """One checked invocation on document i, traced when ``spans`` is given."""
        args = self.cli_args(i, self.workload)
        if spans is None:
            cmd = [sys.executable, "-m", "hypercurv.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), "--", *args]
        wall, usage, code, out, speed = spawn(cmd, self.env, "run")
        digest = _sha(out)
        ok = code == 0
        if ok and self.workload.ledger:
            lines = out.decode().splitlines()
            ok = bool(lines) and "  violated: 0  " in lines[-1]
        if self.expected[i] is None:
            self.expected[i] = digest
        elif digest != self.expected[i]:
            ok = False
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {self.workload.name} doc{i}: exit {code}, stdout sha256 {digest}", file=sys.stderr)
        return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, speed)

    def setup_times(self, repeats: int) -> list[float]:
        """Wall times of ``hypercurv validate`` after a discarded warm-up."""
        times = []
        for k in range(repeats + 1):
            i = k % len(self.docs)
            cmd = [sys.executable, "-m", "hypercurv.cli", "validate", str(self.paths[i])]
            wall, _usage, code, _out, speed = spawn(cmd, self.env, "validate")
            if code != 0:
                self.attempted += 1
                self.failed += 1
                print(f"FAILED validate doc{i}: exit {code}", file=sys.stderr)
            if k:
                times.append(wall * speed)
        return times


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def digest_key(workload: Workload, smoke: bool) -> str:
    name = workload.reference or workload.name
    return f"smoke/{name}" if smoke else name


def prepare(runner: Runner, seed: int, smoke: bool) -> bool:
    """Fix the expected stdout of the documents; False if a document drifted."""
    workload = runner.workload
    doc_digests = [_sha(_doc_bytes(d)) for d in runner.docs]
    if seed == DEFAULT_SEED:
        recorded = load_digests().get(digest_key(workload, smoke))
        if recorded is None:
            print(f"no recorded digests for {digest_key(workload, smoke)}", file=sys.stderr)
            return False
        if recorded["documents"] != doc_digests:
            print(f"generator drift: {workload.name} documents differ from the record", file=sys.stderr)
            return False
        runner.expected = list(recorded["stdout"])
        return True
    if workload.reference:
        # The reference command on the same documents fixes the expected output.
        reference = WORKLOADS[workload.reference]
        for i in range(REFERENCE_DOCS):
            args = [sys.executable, "-m", "hypercurv.cli", *runner.cli_args(i, reference)]
            _wall, _usage, code, out, _speed = spawn(args, runner.env, "reference")
            runner.expected[i] = _sha(out)
            if code != 0:
                print(f"FAILED reference {reference.name} doc{i}: exit {code}", file=sys.stderr)
                return False
    return True


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """Invocations over the document stream until ``seconds`` have passed."""
    plain: list[Sample] = []
    traced: list[Sample] = []
    counts: list[dict] = []
    spans = WORK / "spans.json"
    start = time.perf_counter()
    while True:
        i = len(plain) % len(runner.docs)
        plain.append(runner.invoke(i))
        if trace:
            traced.append(runner.invoke(i, spans))
            counts.append(tracer.run_counts(json.loads(spans.read_text())))
            spans.unlink()
        elapsed = time.perf_counter() - start
        # Stop at the invocation that ends nearest to the deadline.
        if len(plain) >= MIN_INVOCATIONS and elapsed * (1 + 0.5 / len(plain)) >= seconds:
            break
    if trace:
        layers = tracer.layer_metrics(counts)
        metrics = {name: (value, tracer.LAYER_UNITS[name]) for name, value in layers.items()}
        overhead = statistics.median(t.ref_wall - p.ref_wall for p, t in zip(plain, traced))
        metrics["trace.overhead_s"] = (overhead, "s")
        return metrics
    unscaled = {
        "wall_s": statistics.median(s.wall for s in plain),
        "cpu_s": statistics.median(s.cpu for s in plain),
        "speed": statistics.median(s.speed for s in plain),
    }
    print(json.dumps({"unscaled": unscaled}))
    return {
        "wall_s": (statistics.median(s.ref_wall for s in plain), "s"),
        "cpu_s": (statistics.median(s.ref_cpu for s in plain), "s"),
        "peak_rss_mb": (statistics.median(s.rss_mb for s in plain), "MiB"),
    }


def pin_to_one_cpu() -> None:
    """Run this process, its speed probe and its children on one CPU.

    The host's CPUs change speed independently, in phases of seconds, by up
    to 2x; the probe in ``spawn`` can only see the speed of the CPU the
    child runs on if both are pinned to it.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def environment() -> dict:
    # A checkout that is not a git repository records no commit; the digest
    # of the sources identifies the program either way.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hypercurv").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    workload = WORKLOADS[name]
    runner = Runner(workload, seed, smoke)
    correct = prepare(runner, seed, smoke)
    setup = runner.setup_times(0 if trace else 1 if smoke else SETUP_REPEATS)
    metrics = measure(runner, seconds, trace)
    if not trace:
        metrics["setup_s"] = (statistics.median(setup), "s")
    if seed != DEFAULT_SEED:
        for i, digest in enumerate(runner.expected):
            if digest is not None:
                document = _sha(_doc_bytes(runner.docs[i]))
                print(f"digest {name} seed={seed} doc{i} document={document} stdout={digest}")
    print(f"{name}: {runner.attempted} invocations, {runner.failed} failed", file=sys.stderr)
    return {
        "correct": correct and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def record() -> int:
    """Write the digests of the default seed's documents and outputs."""
    digests = {}
    for smoke in (False, True):
        for workload in WORKLOADS.values():
            if workload.reference:
                continue
            runner = Runner(workload, DEFAULT_SEED, smoke)
            for i in range(len(runner.docs)):
                runner.invoke(i)
            if runner.failed:
                return 1
            digests[digest_key(workload, smoke)] = {
                "documents": [_sha(_doc_bytes(d)) for d in runner.docs],
                "stdout": runner.expected,
            }
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    return 0


def smoke() -> int:
    """Every workload on tiny documents: all metrics present, nothing failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    good = True
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, DEFAULT_SEED, 0.5, bool(trace), smoke=True)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            ratio = result["failed"] / result["attempted"]
            ok = result["correct"] and got == wanted[trace]
            print(f"{'ok' if ok else 'FAIL'} {name} trace={trace} fail_ratio={ratio} metrics={len(got)}")
            if got != wanted[trace]:
                differ = sorted(set(got.items()) ^ set(wanted[trace].items()))
                print(f"  metric names/units differ from BENCHMARK.json: {differ}")
            good = good and ok
    return 0 if good else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny documents, every workload")
    parser.add_argument("--record", action="store_true", help="rewrite the default seed's digests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hypercurv" / "cli.py").is_file():
        print(f"no hypercurv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    print(json.dumps({"environment": environment()}))
    pin_to_one_cpu()
    if args.record:
        return record()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
