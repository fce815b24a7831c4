"""Command-line front door: load graphs/families/contexts/abstractions, run the
miner, basis builder, validity checks, or the brute-force verifier, and print
deterministic TSV or JSON-lines output.

Exit codes: 0 success, 1 validation failure (witness printed), 2 I/O or parse
errors.  Every error is one ``error: ...`` line on stderr, written by ``_fail``
where the failure is found.
"""

from __future__ import annotations

import json
import sys
from typing import NoReturn

import click

from . import families as fam_mod
from . import fca as fca_mod
from . import implications as impl_mod
from . import miner as miner_mod
from . import oracle as oracle_mod
from .confluence import is_confluence
from .order import PosetError, load_poset

VALIDATION_EXIT = 1
PARSE_EXIT = 2


def _fail(code: int, message: str) -> NoReturn:
    sys.stderr.write(f"error: {message}\n")
    sys.exit(code)


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        _fail(PARSE_EXIT, f"cannot read {path}: {exc}")


def _family_options(fn):
    fn = click.option("--graph", "graph_path", type=str, default=None, help="Graph file (v/e lines).")(fn)
    fn = click.option("--edge-mode/--vertex-mode", "edge_mode", default=False, help="Treat graph edges (default: vertices) as items.")(fn)
    fn = click.option("--min-size", type=int, default=1, show_default=True, help="Minimum vertex-set size (vertex mode).")(fn)
    fn = click.option("--explicit", "explicit_path", type=str, default=None, help="Explicit family file (one pattern per line).")(fn)
    fn = click.option("--kgap", nargs=2, type=int, default=None, metavar="N K", help="Bounded-gap word family over N positions, gap at most K.")(fn)
    return fn


_context_option = click.option("--context", "context_path", type=str, default=None, help="Context file (object: items).")
_budget_option = click.option("--budget", type=click.IntRange(min=1), default=4096, show_default=True, help="Family materialization budget.")


def _context_options(fn):
    fn = _context_option(fn)
    fn = click.option("--abstraction", "abstraction_path", type=str, default=None, help="Abstraction file (one generator extent per line).")(fn)
    fn = click.option("--min-support", type=click.IntRange(min=0), default=None, help="Frequency-threshold abstraction.")(fn)
    return fn


def _load_instance(
    graph_path, edge_mode, min_size, explicit_path, kgap,
    context_path=None, abstraction_path=None, min_support=None, need_context: bool = True,
) -> tuple[fam_mod.PatternFamily, fca_mod.ObjectContext | None, fca_mod.ExtensionalAbstraction]:
    """Check the options, then load (family, context, abstraction) in ``MinerConfig``'s field order."""
    kinds = [graph_path is not None, explicit_path is not None, kgap is not None]
    if sum(kinds) != 1:
        _fail(VALIDATION_EXIT, "exactly one of --graph, --explicit, --kgap is required")
    if min_size != 1 and (graph_path is None or edge_mode):
        _fail(VALIDATION_EXIT, "--min-size applies only to a vertex-mode --graph")
    if abstraction_path is not None and min_support is not None:
        _fail(VALIDATION_EXIT, "--abstraction and --min-support are mutually exclusive")

    context_rows = None
    if context_path is not None:
        try:
            context_rows = fca_mod.load_context(_read_lines(context_path))
        except fam_mod.ParseError as exc:
            _fail(PARSE_EXIT, f"{context_path}: {exc}")
    elif need_context:
        _fail(VALIDATION_EXIT, "--context is required for this command")

    try:
        if graph_path is not None:
            graph = fam_mod.load_graph(_read_lines(graph_path))
            family: fam_mod.PatternFamily = (
                fam_mod.ConnectedEdgeFamily(graph)
                if edge_mode
                else fam_mod.ConnectedVertexFamily(graph, min_size)
            )
        elif kgap is not None:
            family = fam_mod.KGapWordFamily(kgap[0], kgap[1])
        else:
            rows = fam_mod.load_family_lines(_read_lines(explicit_path))
            extra = (it for _, items in context_rows or () for it in items)
            family = fam_mod.explicit_family_from_names(rows, extra_items=extra)
    except fam_mod.NotSubconfluenceError as exc:
        _fail(VALIDATION_EXIT, f"invalid family: {exc}")
    except (fam_mod.ParseError, fam_mod.FamilyError) as exc:
        _fail(PARSE_EXIT, f"family input: {exc}")

    context = None
    if context_rows is not None:
        try:
            context = fca_mod.context_from_rows(context_rows, family.universe)
        except fca_mod.ContextError as exc:
            _fail(VALIDATION_EXIT, f"context does not match the family universe: {exc}")

    if abstraction_path is not None:  # mine and oracle take it, and both need --context
        try:
            abstraction = fca_mod.load_abstraction(_read_lines(abstraction_path), context.objects)
        except fam_mod.ParseError as exc:
            _fail(PARSE_EXIT, f"{abstraction_path}: {exc}")
    else:
        abstraction = fca_mod.ExtensionalAbstraction.frequency(min_support or 0)
    return family, context, abstraction


def _concept_line(concept, context, fmt: str) -> str:
    universe = context.universe
    if fmt == "json":
        return json.dumps(
            {
                "v": 1,
                "intent": list(universe.names_of(concept.intent)),
                "extent": list(context.objects.names_of(concept.extent)),
                "anchor_minimal": list(universe.names_of(concept.anchor_minimal)),
                "empty_support": concept.extent == 0,
            },
            separators=(",", ":"),
        )
    return "\t".join(
        [
            universe.format(concept.intent),
            context.objects.format(concept.extent),
            universe.format(concept.anchor_minimal),
            "true" if concept.extent == 0 else "false",
        ]
    )


@click.group()
def main():
    """Mine support-closed patterns, concept confluences, and implication bases
    over confluent pattern families."""


@main.command("mine")
@_family_options
@_context_options
@click.option("--format", "fmt", type=click.Choice(["tsv", "json"]), default="tsv", show_default=True)
@click.option("--sorted", "sorted_output", is_flag=True, help="Buffer and sort lines by intent for stable golden files.")
@click.option("--emit-empty-support/--skip-empty-support", default=True, show_default=True, help="Keep or drop concepts whose abstract support is empty.")
def mine_command(fmt, sorted_output, emit_empty_support, **source):
    """List each (abstract) support-closed pattern of the family exactly once."""
    family, context, abstraction = _load_instance(**source)
    try:
        concepts = miner_mod.mine(miner_mod.MinerConfig(family, context, abstraction))
    except miner_mod.NotStronglyAccessibleError as exc:
        _fail(VALIDATION_EXIT, str(exc))
    universe = family.universe
    if not emit_empty_support:
        concepts = (c for c in concepts if c.extent)
    if sorted_output:
        concepts = sorted(concepts, key=lambda c: (" ".join(universe.names_of(c.intent)), c.extent))
    write = sys.stdout.write  # one line per concept as it arrives, no flush
    for concept in concepts:
        write(_concept_line(concept, context, fmt) + "\n")


@main.command("basis")
@_family_options
@_context_option
@_budget_option
def basis_command(budget, **source):
    """Print the min-max implication basis, one sorted line per implication."""
    family, context, _ = _load_instance(**source)
    try:
        basis = impl_mod.minmax_basis(context, family, oracle_mod.materialize(family, budget))
    except oracle_mod.BudgetExceededError as exc:
        _fail(VALIDATION_EXIT, str(exc))
    fmt = family.universe.format
    lines = sorted(f"{fmt(p)} -> {fmt(q)} [{kind}]" for p, q, kind in basis)
    lines.append("")  # a newline after each line, and nothing for an empty basis
    sys.stdout.write("\n".join(lines))


@main.command("check")
@_family_options
@click.option("--poset", "poset_path", type=str, default=None, help="Check a poset file (id: covers ...) for the confluence property instead.")
@_budget_option
def check_command(poset_path, budget, **source):
    """Validate a family (subconfluence + strong accessibility) or a poset file."""
    if poset_path is not None:
        if source["edge_mode"] or source["min_size"] != 1 or any(
            source[k] is not None for k in ("graph_path", "explicit_path", "kgap")
        ):
            _fail(VALIDATION_EXIT, "--poset cannot be combined with family options")
        try:
            poset = load_poset(_read_lines(poset_path))
        except PosetError as exc:
            _fail(PARSE_EXIT, f"{poset_path}: {exc}")
        verdict = is_confluence(poset)
        if verdict:
            sys.stdout.write("confluence: ok\n")
        else:
            sys.stdout.write(f"confluence: FAIL witness {verdict.witness!r}\n")
            sys.exit(VALIDATION_EXIT)
        return
    family, _, _ = _load_instance(**source, need_context=False)
    sys.stdout.write("subconfluence: ok\n")
    verdict = family.strongly_accessible()
    if not verdict:
        t1, t2 = map(family.universe.format, verdict.witness)
        sys.stdout.write(f"strongly-accessible: FAIL no augmentation chain from {t1} to {t2}\n")
        sys.exit(VALIDATION_EXIT)
    # the members are listed only to be counted, and at most budget + 1 of them
    try:
        count = str(len(oracle_mod.materialize(family, budget)))
    except oracle_mod.BudgetExceededError:
        count = f"more than {budget}"
    sys.stdout.write(f"strongly-accessible: ok ({count} members)\n")


@main.command("oracle")
@_family_options
@_context_options
@click.option("--seed", type=int, default=0, show_default=True)
@_budget_option
def oracle_command(seed, budget, **source):
    """Brute-force verification report (JSON) for one instance."""
    family, context, abstraction = _load_instance(**source)
    try:
        report = oracle_mod.verify_all(context, family, abstraction, seed=seed, budget=budget)
    except oracle_mod.BudgetExceededError as exc:
        _fail(VALIDATION_EXIT, str(exc))
    report_dict = report.to_dict(context)
    sys.stdout.write(json.dumps(report_dict, indent=2, sort_keys=True) + "\n")
    if not report.ok:
        sys.exit(VALIDATION_EXIT)


if __name__ == "__main__":
    main()
