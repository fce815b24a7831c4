#!/usr/bin/env python3
"""End-to-end benchmark of the confmine CLI (``mine`` and ``basis``).

Usage, from the repository root:

    python3 bench/run.py --workload minsize-anchor --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --seed 0          # every workload in turn

The run generates a suite of seeded instance files, loads ``confmine`` from
``src/`` and calls the CLI entry point in-process on them (argv list, stdout
captured).  With ``--trace 0`` it times untraced invocations and prints the
end-to-end metrics; with ``--trace 1`` it wraps the layer functions and prints
per-layer counts and self times.  Every output is checked: one verified pass
per instance, then every later invocation must reproduce its digest.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``bench/README.md`` for the metric catalogue.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import instances
import spans
import verify

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"


def load_cli():
    """Import ``confmine.cli`` from the checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import confmine.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import confmine from {src}: {exc}")
    if not Path(confmine.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: confmine was imported from outside {src}")
    return confmine.cli


class Capture(io.TextIOBase):
    """Stand-in for stdout: notes when the first text arrives.

    With ``keep`` the chunks are stored for verification; without, complete
    lines are folded into a digest as they arrive so that nothing the program
    printed is held in memory.
    """

    encoding = "utf-8"

    def __init__(self, keep: bool = True):
        self.first: float | None = None
        self.keep = keep
        self.chunks: list[str] = []
        self._partial = ""
        self._digest = verify.Digest()

    def writable(self) -> bool:
        return True

    def write(self, text):
        if not isinstance(text, str):
            raise TypeError("text stream")
        if text and self.first is None:
            self.first = time.perf_counter()
        if self.keep:
            self.chunks.append(text)
        else:
            *done, self._partial = (self._partial + text).split("\n")
            for line in done:
                self._digest.add(line)
        return len(text)

    def lines(self) -> list[str]:
        lines = "".join(self.chunks).split("\n")
        if lines[-1] == "":
            lines.pop()
        return lines

    def digest(self) -> str:
        if self.keep:
            return verify.digest(self.lines())
        if self._partial:
            self._digest.add(self._partial)
            self._partial = ""
        return self._digest.hexdigest()


@dataclass
class Invocation:
    ok: bool
    wall: float
    first: float
    capture: Capture
    error: str = ""


def invoke(cli, argv: list[str], keep: bool = True) -> Invocation:
    """Run ``confmine <argv>`` in-process; wall time runs from argv to the last output."""
    capture = Capture(keep)
    real_stdout = sys.stdout
    error = ""
    sys.stdout = capture
    start = time.perf_counter()
    try:
        cli.main.main(args=argv, prog_name="confmine", standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (None, 0):
            error = f"exit code {exc.code}"
    except Exception as exc:  # any failure of the program is a counted error
        error = f"{type(exc).__name__}: {exc}"
    finally:
        end = time.perf_counter()
        sys.stdout = real_stdout
    first = (capture.first if capture.first is not None else end) - start
    return Invocation(not error, end - start, first, capture, error)


def load_instance(argv: list[str]):
    """The CLI's set-up path through the public loaders: files to family and context."""
    from confmine import families as fam_mod, fca as fca_mod
    opts = dict(zip(argv, argv[1:]))
    with open(opts["--graph"], encoding="utf-8") as fh:
        graph = fam_mod.load_graph(fh.readlines())
    if "--edge-mode" in argv:
        family = fam_mod.ConnectedEdgeFamily(graph)
    else:
        family = fam_mod.ConnectedVertexFamily(graph, int(opts.get("--min-size", 1)))
    with open(opts["--context"], encoding="utf-8") as fh:
        rows = fca_mod.load_context(fh.readlines())
    return family, fca_mod.context_from_rows(rows, family.universe)


@dataclass
class Suite:
    """The generated instances of one run and the bookkeeping of every invocation."""

    workload: str
    seed: int
    members: list[instances.Instance]
    argvs: list[list[str]] = field(default_factory=list)
    reference: list[str] = field(default_factory=list)
    records: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def write(self) -> None:
        base = WORK / f"{self.workload}-s{self.seed}"
        self.argvs = [inst.write(base / f"i{k}") for k, inst in enumerate(self.members)]

    def count(self, inv: Invocation, k: int) -> bool:
        """Count one invocation; it fails on an error or a digest other than the verified one."""
        self.attempted += 1
        ok = inv.ok and inv.capture.digest() == self.reference[k]
        if not ok:
            self.failed += 1
            print(f"  instance {k}: {inv.error or 'output differs from the verified pass'}", file=sys.stderr)
        return ok

    def verify_pass(self, cli) -> None:
        """One untimed, checked invocation per instance; its digest is the reference."""
        check = verify.check_basis if self.members[0].shape.command == "basis" else verify.check_mine
        for inst, argv in zip(self.members, self.argvs):
            inv = invoke(cli, argv)
            lines = inv.capture.lines()
            problems = [inv.error] if not inv.ok else check(verify.Model(inst), lines)
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"  verification failed: {problems[:3]}", file=sys.stderr)
            self.reference.append(verify.digest(lines) if not problems else "unverified")
            self.records.append(len(lines))


def rounds(seconds: float):
    """Yield round numbers until ``seconds`` have passed (at least three rounds)."""
    deadline = time.perf_counter() + seconds
    n = 0
    while n < 3 or time.perf_counter() < deadline:
        yield n
        n += 1


def per_instance(stat, samples: list[list[float]]) -> float:
    """``stat`` of each instance's samples, averaged over the suite."""
    values = [stat(s) for s in samples if s]
    return statistics.fmean(values) if values else 0.0


def time_setup(suite: Suite) -> float:
    """One pass of the set-up path over the suite, per instance."""
    gc.collect()
    start = time.perf_counter()
    for argv in suite.argvs:
        load_instance(argv)
    return (time.perf_counter() - start) / len(suite.argvs)


def phase(name: str, since: float) -> float:
    """Log how long a phase of the run took (to stderr) and return the time now."""
    now = time.perf_counter()
    print(f"  phase {name}: {now - since:.2f} s", file=sys.stderr)
    return now


def run_untraced(cli, suite: Suite, seconds: float) -> dict:
    # tracemalloc slows the program 10-30 fold, so peak memory is taken on the
    # suite's leading instances only (their graphs are the same on every seed)
    # and averaged over them.
    mark = time.perf_counter()
    peaks = []
    for k, argv in enumerate(suite.argvs[: suite.members[0].shape.memory_instances]):
        gc.collect()
        tracemalloc.start()
        inv = invoke(cli, argv, keep=False)
        peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        tracemalloc.stop()
        suite.count(inv, k)
    mark = phase("memory", mark)

    walls: list[list[float]] = [[] for _ in suite.argvs]
    firsts: list[list[float]] = [[] for _ in suite.argvs]
    setups = []
    for _ in rounds(seconds):
        setups.append(time_setup(suite))
        for k, argv in enumerate(suite.argvs):
            gc.collect()
            inv = invoke(cli, argv)
            if suite.count(inv, k):
                walls[k].append(inv.wall)
                firsts[k].append(inv.first)

    phase("timed", mark)
    best_walls = [min(w) for w in walls if w]
    records = sum(r for r, w in zip(suite.records, walls) if w)
    print(
        f"timed: {sum(map(len, walls))} invocations of {len(walls)} instances; per-instance median "
        f"wall {per_instance(statistics.median, walls):.6f} s, first output "
        f"{per_instance(statistics.median, firsts):.6f} s"
    )
    return {
        "wall_s": (per_instance(min, walls), "s"),
        "records_per_s": (records / sum(best_walls) if best_walls else 0.0, "1/s"),
        "first_output_s": (per_instance(min, firsts), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_mem_mb": (statistics.fmean(peaks), "MB"),
    }


LAYER_TIMES = (
    "fca.extension", "fca.intension", "fca.anchor_minimal", "fca.abstraction_apply",
    "fca.support_closure", "families.contains", "families.project", "families.minimals",
    "families.augmentations", "miner.close_pattern",
)
LAYER_SELF_ONLY = (
    "miner.mine", "cli", "implications.equivalence_classes",
    "implications.minmax_basis", "oracle.materialize",
)
EVENT_COUNTS = (
    "miner.emitted", "miner.prune_minimal", "miner.prune_item", "miner.prune_root",
    "miner.minimals_processed", "miner.max_depth", "implications.classes",
    "oracle.materialize.members",
)


def layer_metrics(tracer: spans.Tracer) -> dict[str, float]:
    """Per-layer figures from a tracer's accumulated calls, self times and counts."""
    out: dict[str, float] = {}
    for name in LAYER_TIMES:
        out[f"{name}.calls"] = tracer.calls.get(name, 0)
        out[f"{name}.self_s"] = tracer.self_time.get(name, 0.0)
    for name in LAYER_SELF_ONLY:
        out[f"{name}.self_s"] = tracer.self_time.get(name, 0.0)
    for name in EVENT_COUNTS:
        out[name] = tracer.counts.get(name, 0)
    tested = tracer.counts.get("augmentations.tested", 0)
    out["families.augmentations.hit_ratio"] = (
        tracer.counts.get("augmentations.returned", 0) / tested if tested else 0.0
    )
    closures = out["miner.close_pattern.calls"]
    out["miner.useful_ratio"] = out["miner.emitted"] / closures if closures else 0.0
    return out


def suite_pass(cli, suite: Suite, tracer: spans.Tracer | None = None) -> float:
    """One invocation per instance, traced when a tracer is given; summed wall time."""
    wall = 0.0
    for k, argv in enumerate(suite.argvs):
        gc.collect()
        if tracer is None:
            inv = invoke(cli, argv)
        else:
            with tracer:
                inv = tracer.call("cli", invoke, cli, argv)
        suite.count(inv, k)
        wall += inv.wall
    return wall


def run_traced(cli, suite: Suite, seconds: float) -> dict:
    tracer = spans.Tracer()
    untraced, traced, passes = [], [], []
    for _ in rounds(seconds):
        untraced.append(suite_pass(cli, suite))
        tracer.reset()
        traced.append(suite_pass(cli, suite, tracer))
        passes.append(layer_metrics(tracer))
    tracer.write(WORK / f"{suite.workload}-s{suite.seed}" / "spans.tsv")
    leftover = spans.installed_wrappers()
    if leftover:
        suite.failed += 1
        print(f"  wrappers left installed: {leftover}", file=sys.stderr)

    metrics = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if name.endswith("self_s"):
            metrics[name] = (min(values), "s")
        else:
            if len(set(values)) != 1:
                suite.failed += 1
                print(f"  count {name} differs between passes: {values}", file=sys.stderr)
            metrics[name] = (values[0], "ratio" if name.endswith("_ratio") else "count")
    metrics["trace.overhead_s"] = (min(traced) - min(untraced), "s")
    return metrics


def run_workload(cli, workload: str, seed: int, seconds: float, trace: int) -> tuple[Suite, dict]:
    """Generate, verify and measure one workload; print its metric lines."""
    suite = Suite(workload, seed, instances.suite(workload, seed))
    mark = time.perf_counter()
    suite.write()
    suite.verify_pass(cli)
    phase("verify", mark)
    metrics = (run_traced if trace else run_untraced)(cli, suite, seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"error_rate: {suite.failed / suite.attempted:.6g} ({suite.failed} of {suite.attempted} invocations)")
    return suite, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default="all", choices=sorted(instances.WORKLOADS) + ["all"],
        help="one workload, or all of them in turn with metric names prefixed by the workload",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    single = args.workload != "all"
    attempted = failed = 0
    metrics = {}
    for workload in [args.workload] if single else instances.WORKLOADS:
        if not single:
            print(f"== {workload}")
        suite, figures = run_workload(cli, workload, args.seed, args.seconds, args.trace)
        attempted += suite.attempted
        failed += suite.failed
        prefix = "" if single else f"{workload}/"
        metrics.update({prefix + name: figure for name, figure in figures.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
