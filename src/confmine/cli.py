"""Command-line front door: load graphs/families/contexts/abstractions, run the
miner, basis builder, validity checks, or the brute-force verifier, and print
deterministic TSV or JSON-lines output.

Exit codes: 0 success, 1 validation failure (witness printed), 2 I/O or parse
errors.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import click

from . import families as fam_mod
from . import fca as fca_mod
from . import implications as impl_mod
from . import miner as miner_mod
from . import oracle as oracle_mod
from .confluence import is_confluence
from .order import PosetError, load_poset
from .patterns import Universe

VALIDATION_EXIT = 1
PARSE_EXIT = 2


class CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except OSError as exc:
        raise CliFailure(PARSE_EXIT, f"cannot read {path}: {exc}") from exc


@dataclass
class LoadedInstance:
    family: fam_mod.PatternFamily
    context: fca_mod.ObjectContext | None
    abstraction: fca_mod.ExtensionalAbstraction


def _family_options(fn):
    fn = click.option("--graph", "graph_path", type=str, default=None, help="Graph file (v/e lines).")(fn)
    fn = click.option("--edge-mode/--vertex-mode", "edge_mode", default=False, help="Treat graph edges (default: vertices) as items.")(fn)
    fn = click.option("--min-size", type=int, default=1, show_default=True, help="Minimum vertex-set size (vertex mode).")(fn)
    fn = click.option("--explicit", "explicit_path", type=str, default=None, help="Explicit family file (one pattern per line).")(fn)
    fn = click.option("--kgap", nargs=2, type=int, default=None, metavar="N K", help="Bounded-gap word family over N positions, gap at most K.")(fn)
    return fn


_context_option = click.option("--context", "context_path", type=str, default=None, help="Context file (object: items).")


def _context_options(fn):
    fn = _context_option(fn)
    fn = click.option("--abstraction", "abstraction_path", type=str, default=None, help="Abstraction file (one generator extent per line).")(fn)
    fn = click.option("--min-support", type=click.IntRange(min=0), default=None, help="Frequency-threshold abstraction.")(fn)
    return fn


def _load_instance(
    graph_path, edge_mode, min_size, explicit_path, kgap,
    context_path, abstraction_path, min_support, need_context: bool = True,
) -> LoadedInstance:
    kinds = [graph_path is not None, explicit_path is not None, kgap is not None]
    if sum(kinds) != 1:
        raise CliFailure(VALIDATION_EXIT, "exactly one of --graph, --explicit, --kgap is required")
    if min_size != 1 and (graph_path is None or edge_mode):
        raise CliFailure(VALIDATION_EXIT, "--min-size applies only to a vertex-mode --graph")
    if abstraction_path is not None and min_support is not None:
        raise CliFailure(VALIDATION_EXIT, "--abstraction and --min-support are mutually exclusive")

    context_rows = None
    if context_path is not None:
        try:
            context_rows = fca_mod.load_context(_read_lines(context_path))
        except fam_mod.ParseError as exc:
            raise CliFailure(PARSE_EXIT, f"{context_path}: {exc}") from exc
    elif need_context:
        raise CliFailure(VALIDATION_EXIT, "--context is required for this command")

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
            extra = [it for _, items in (context_rows or []) for it in items]
            family = fam_mod.explicit_family_from_names(rows, extra_items=extra)
    except fam_mod.ParseError as exc:
        raise CliFailure(PARSE_EXIT, f"family input: {exc}") from exc
    except fam_mod.NotSubconfluenceError as exc:
        raise CliFailure(VALIDATION_EXIT, f"invalid family: {exc}") from exc
    except fam_mod.FamilyError as exc:
        raise CliFailure(PARSE_EXIT, f"family input: {exc}") from exc

    context = None
    if context_rows is not None:
        try:
            context = fca_mod.context_from_rows(context_rows, family.universe)
        except fca_mod.ContextError as exc:
            raise CliFailure(VALIDATION_EXIT, f"context does not match the family universe: {exc}") from exc

    if abstraction_path is not None:
        if context is None:
            raise CliFailure(VALIDATION_EXIT, "--abstraction requires --context")
        try:
            abstraction = fca_mod.load_abstraction(_read_lines(abstraction_path), context.objects)
        except fam_mod.ParseError as exc:
            raise CliFailure(PARSE_EXIT, f"{abstraction_path}: {exc}") from exc
    elif min_support is not None:
        abstraction = fca_mod.ExtensionalAbstraction.frequency(min_support)
    else:
        abstraction = fca_mod.ExtensionalAbstraction.identity()
    return LoadedInstance(family, context, abstraction)


def _concept_line(concept, universe: Universe, context, fmt: str) -> str:
    intent = universe.names_of(concept.intent)
    extent = context.object_names(concept.extent)
    anchor = universe.names_of(concept.anchor_minimal)
    if fmt == "json":
        return json.dumps(
            {
                "v": 1,
                "intent": list(intent),
                "extent": list(extent),
                "anchor_minimal": list(anchor),
                "empty_support": concept.empty_support,
            },
            separators=(",", ":"),
        )
    return "\t".join(
        [
            " ".join(intent) or "{}",
            " ".join(extent) or "{}",
            " ".join(anchor) or "{}",
            "true" if concept.empty_support else "false",
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
def mine_command(graph_path, edge_mode, min_size, explicit_path, kgap,
                 context_path, abstraction_path, min_support, fmt, sorted_output,
                 emit_empty_support):
    """List each (abstract) support-closed pattern of the family exactly once."""
    try:
        inst = _load_instance(graph_path, edge_mode, min_size, explicit_path, kgap,
                              context_path, abstraction_path, min_support)
        cfg = miner_mod.MinerConfig(
            family=inst.family,
            context=inst.context,
            abstraction=inst.abstraction,
            emit_empty_support=emit_empty_support,
        )
        events = miner_mod.mine(cfg)
    except miner_mod.NotStronglyAccessibleError as exc:
        _fail(VALIDATION_EXIT, str(exc))
    except CliFailure as exc:
        _fail(exc.code, str(exc))
    universe = inst.family.universe
    concepts = (ev.concept for ev in events)
    if sorted_output:
        concepts = sorted(concepts, key=lambda c: (" ".join(universe.names_of(c.intent)), c.extent))
    for concept in concepts:
        click.echo(_concept_line(concept, universe, inst.context, fmt))


@main.command("basis")
@_family_options
@_context_option
@click.option("--budget", type=int, default=4096, show_default=True, help="Family materialization budget.")
def basis_command(graph_path, edge_mode, min_size, explicit_path, kgap, context_path, budget):
    """Print the min-max implication basis, one sorted line per implication."""
    try:
        inst = _load_instance(graph_path, edge_mode, min_size, explicit_path, kgap,
                              context_path, None, None)
        members = oracle_mod.materialize(inst.family, budget)
        basis = impl_mod.minmax_basis(inst.context, inst.family, members)
    except oracle_mod.BudgetExceededError as exc:
        _fail(VALIDATION_EXIT, str(exc))
    except CliFailure as exc:
        _fail(exc.code, str(exc))
    universe = inst.family.universe
    lines = sorted(
        f"{universe.format(imp.premise)} -> {universe.format(imp.conclusion)} [{imp.kind}]"
        for imp in basis
    )
    for line in lines:
        click.echo(line)


@main.command("check")
@_family_options
@click.option("--poset", "poset_path", type=str, default=None, help="Check a poset file (id: covers ...) for the confluence property instead.")
@click.option("--budget", type=int, default=4096, show_default=True)
def check_command(graph_path, edge_mode, min_size, explicit_path, kgap, poset_path, budget):
    """Validate a family (subconfluence + strong accessibility) or a poset file."""
    if poset_path is not None:
        try:
            poset = load_poset(_read_lines(poset_path))
        except PosetError as exc:
            _fail(PARSE_EXIT, f"{poset_path}: {exc}")
        except CliFailure as exc:
            _fail(exc.code, str(exc))
        verdict = is_confluence(poset)
        if verdict:
            click.echo("confluence: ok")
        else:
            click.echo(f"confluence: FAIL witness {verdict.witness!r}")
            sys.exit(VALIDATION_EXIT)
        return
    try:
        inst = _load_instance(graph_path, edge_mode, min_size, explicit_path, kgap,
                              None, None, None, need_context=False)
    except CliFailure as exc:
        _fail(exc.code, str(exc))
    click.echo("subconfluence: ok")
    try:
        members = oracle_mod.materialize(inst.family, budget)
    except oracle_mod.BudgetExceededError as exc:
        click.echo(f"strongly-accessible: unknown ({exc})")
        return
    verdict = fam_mod.is_strongly_accessible(members)
    universe = inst.family.universe
    if verdict:
        click.echo(f"strongly-accessible: ok ({len(members)} members)")
    else:
        t1, t2 = verdict.witness
        click.echo(
            "strongly-accessible: FAIL "
            f"no augmentation chain from {universe.format(t1)} to {universe.format(t2)}"
        )


@main.command("oracle")
@_family_options
@_context_options
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--budget", type=int, default=4096, show_default=True)
def oracle_command(graph_path, edge_mode, min_size, explicit_path, kgap,
                   context_path, abstraction_path, min_support, seed, budget):
    """Brute-force verification report (JSON) for one instance."""
    try:
        inst = _load_instance(graph_path, edge_mode, min_size, explicit_path, kgap,
                              context_path, abstraction_path, min_support)
        report = oracle_mod.verify_all(
            inst.context, inst.family, inst.abstraction, seed=seed, budget=budget
        )
    except oracle_mod.BudgetExceededError as exc:
        _fail(VALIDATION_EXIT, str(exc))
    except CliFailure as exc:
        _fail(exc.code, str(exc))
    click.echo(
        json.dumps(
            report.to_dict(inst.family.universe, inst.context.objects),
            indent=2,
            sort_keys=True,
        )
    )
    if not report.ok:
        sys.exit(VALIDATION_EXIT)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
