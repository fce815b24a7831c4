#!/usr/bin/env python3
"""Print a digest of the miner's event trace on seeded random instances, and
optionally of the CLI's output on the ``tests/data`` commands in ``CLI_COMMANDS``.

Usage, from any directory:

    python3 tests/tools/trace_digests.py --count 300 --cli > digests.txt

Each instance is one line: its family and abstraction kind, its seed, and the
sha256 of every ``mine_trace`` event's kind and fields, read by attribute
(``at_root`` and ``blocked_by_item`` included), so two checkouts whose records
differ in shape but agree on every field print the same line.  Each seed draws
one vertex family of each ``min_size`` 1-3, an edge, a k-gap and an explicit
family (``randomized.family_kinds``), each under the identity, a frequency and
a generator abstraction.  With ``--cli``, each command adds one line: its
arguments and the sha256 of its stdout, stderr and exit code.
``CLI_COMMANDS`` is the one list of the ``tests/data`` commands whose output
is checked for identity: CI runs this tool under ``PYTHONHASHSEED`` 0 and 1
and requires the two outputs to be byte-identical, and the exact output of
each ``check`` command and of the edge-shape commands is asserted in
``tests/test_cli.py``.  Diff the output of two checkouts to check that a
change leaves traces and CLI bytes as they were.  ``confmine`` is imported
from this checkout's ``src/``; pytest does not collect this file.
"""

import argparse
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from confmine.miner import MineEvent, MinerConfig, MinimalEvent, PruneEvent, mine_trace
from randomized import abstraction_kinds, family_kinds, random_context

FIELDS = {
    MineEvent: ("concept.extent", "concept.intent", "concept.anchor_minimal", "parent_intent"),
    PruneEvent: ("closure", "parent_intent", "blocked_by_minimal", "blocked_by_item", "at_root"),
    MinimalEvent: ("minimal", "enumerated"),
}
FAMILY_KINDS = ("vertex1", "vertex2", "vertex3", "edge", "kgap", "explicit")
ABSTRACTION_KINDS = ("identity", "frequency", "generators")

# Each runs as a subprocess, which inherits this process's PYTHONHASHSEED.
DATA = "tests/data/"
CLI_COMMANDS = (
    ("mine", "--format", "json", "--kgap", "3", "1", "--context", DATA + "kgap.ctx"),
    ("mine", "--format", "json", "--explicit", DATA + "wedge.family", "--context", DATA + "wedge.ctx"),
    ("mine", "--format", "json", "--graph", DATA + "quad.graph", "--edge-mode",
     "--context", DATA + "quad.ctx", "--abstraction", DATA + "pairgen.abs"),
    ("check", "--explicit", DATA + "quad.family"),
    ("check", "--explicit", DATA + "wedge.family"),
    ("check", "--poset", DATA + "chain.poset"),
    ("check", "--poset", DATA + "fork.poset"),
    # edge shapes: a zero-item universe, and a context with no objects
    ("mine", "--explicit", DATA + "empty.family", "--context", DATA + "noitems.ctx"),
    ("basis", "--explicit", DATA + "empty.family", "--context", DATA + "noitems.ctx"),
    ("mine", "--kgap", "3", "1", "--context", DATA + "noobjects.ctx"),
    ("basis", "--kgap", "3", "1", "--context", DATA + "noobjects.ctx"),
)


def _field(ev, name: str):
    for part in name.split("."):
        ev = getattr(ev, part)
    return ev


def trace_digest(cfg: MinerConfig) -> str:
    h = hashlib.sha256()
    for ev in mine_trace(cfg):
        values = [_field(ev, name) for name in FIELDS[type(ev)]]
        h.update(f"{type(ev).__name__} {values!r}\n".encode())
    return h.hexdigest()


def instance_lines(seed: int):
    rng = random.Random(seed)
    for family_kind, fam in zip(FAMILY_KINDS, family_kinds(rng)):
        ctx = random_context(rng, fam.universe, max_objects=6)
        for abstraction_kind, abstraction in zip(ABSTRACTION_KINDS, abstraction_kinds(rng, ctx.objects.size)):
            cfg = MinerConfig(fam, ctx, abstraction)
            yield f"{family_kind}/{abstraction_kind}\t{seed}\t{trace_digest(cfg)}"


def cli_lines():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for args in CLI_COMMANDS:
        run = subprocess.run(
            [sys.executable, "-m", "confmine.cli", *args], cwd=ROOT, env=env, capture_output=True
        )
        h = hashlib.sha256(b"%d\n" % run.returncode)
        h.update(hashlib.sha256(run.stdout).digest() + hashlib.sha256(run.stderr).digest())
        yield f"cli {' '.join(args)}\t{h.hexdigest()}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=100, help="seeds 0 .. count - 1")
    parser.add_argument("--cli", action="store_true", help="also digest the tests/data CLI commands")
    args = parser.parse_args()
    write = sys.stdout.write
    for seed in range(args.count):
        for line in instance_lines(seed):
            write(line + "\n")
    if args.cli:
        for line in cli_lines():
            write(line + "\n")


if __name__ == "__main__":
    main()
