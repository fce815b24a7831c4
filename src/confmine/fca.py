"""Object contexts, the (intension, extension) Galois connection, extensional
abstractions, and support closures over pattern families.

The support closure of a family member t is the greatest family member above t
with the same (abstract) support set: project the plain powerset closure
intension(extension(t)) onto the family at any minimal member below t.  In a
confluence every minimal m below t gives the same projection, and so does t
itself (m <= t <= x makes project_t(x) == project_m(x)), so closures project
from the pattern and never look up a minimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .families import ParseError, PatternFamily, subconfluence_violation
from .patterns import Universe, content_lines, is_subset, iter_indices, mask_of


class ContextError(ValueError):
    """Invalid context construction or query."""


@dataclass(frozen=True)
class ObjectContext:
    """Named objects described by patterns over a shared item universe."""

    objects: tuple[str, ...]
    descriptions: tuple[int, ...]
    universe: Universe

    def __post_init__(self):
        if len(set(self.objects)) != len(self.objects):
            raise ContextError("duplicate object names")
        if len(self.objects) != len(self.descriptions):
            raise ContextError("description count does not match object count")
        for d in self.descriptions:
            if d & ~self.universe.full_mask:
                raise ContextError("description uses items outside the universe")

    @cached_property
    def tids(self) -> tuple[int, ...]:
        """Item-major tidsets: bit o of ``tids[i]`` is set when object o has item i.

        Derived on first use and kept; the context stays immutable in effect.
        """
        tids = [0] * self.universe.size
        for o, d in enumerate(self.descriptions):
            for i in iter_indices(d):
                tids[i] |= 1 << o
        return tuple(tids)

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def all_objects_mask(self) -> int:
        return (1 << len(self.objects)) - 1

    def object_names(self, extent: int) -> tuple[str, ...]:
        return tuple(self.objects[i] for i in iter_indices(extent))

    def format_extent(self, extent: int) -> str:
        return " ".join(self.object_names(extent)) or "{}"


def extension(ctx: ObjectContext, pattern: int) -> int:
    """Support set of a pattern: objects whose description contains it.

    The AND of the pattern's item tidsets; items outside the universe have no
    objects.
    """
    if pattern & ~ctx.universe.full_mask:
        return 0
    e = ctx.all_objects_mask
    tids = ctx.tids
    for i in iter_indices(pattern):
        e &= tids[i]
    return e


def intension(ctx: ObjectContext, extent: int) -> int:
    """Intersection of the descriptions over an extent; the full universe if empty."""
    acc = ctx.universe.full_mask
    for i in iter_indices(extent):
        acc &= ctx.descriptions[i]
    return acc


@dataclass(frozen=True)
class ExtensionalAbstraction:
    """A union-closed object-set family containing the empty set, as an interior.

    Two concrete shapes: an explicit generator list (the interior of an extent
    is the union of the generators it contains) and a frequency threshold
    (extents below the minimum support collapse to the empty set).  The
    identity abstraction is the threshold 0.
    """

    kind: str  # "frequency" | "generators"
    threshold: int = 0
    generators: tuple[int, ...] = ()

    @classmethod
    def identity(cls) -> "ExtensionalAbstraction":
        return cls("frequency", 0)

    @classmethod
    def frequency(cls, min_support: int) -> "ExtensionalAbstraction":
        if min_support < 0:
            raise ValueError("minimum support must be nonnegative")
        return cls("frequency", min_support)

    @classmethod
    def from_generators(cls, generators: Iterable[int]) -> "ExtensionalAbstraction":
        return cls("generators", 0, tuple(sorted(set(generators))))

    def apply(self, extent: int) -> int:
        """Interior of an extent: the greatest abstraction member inside it."""
        if self.kind == "frequency":
            return extent if extent.bit_count() >= self.threshold else 0
        acc = 0
        for g in self.generators:
            if is_subset(g, extent):
                acc |= g
        return acc

    def members_within(self, all_objects: int) -> frozenset[int]:
        """Materialize the abstraction (union closure of the generators plus empty set)."""
        if self.kind == "frequency":
            return frozenset(
                e
                for e in range(all_objects + 1)
                if is_subset(e, all_objects)
                and (e == 0 or e.bit_count() >= self.threshold)
            )
        members = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for g in self.generators:
                u = cur | g
                if u not in members:
                    members.add(u)
                    frontier.append(u)
        return frozenset(members)


def anchor_minimal(fam: PatternFamily, pattern: int) -> int:
    """The least-mask minimal family member inside a pattern.

    This is the anchor the miner reports for an emitted concept: there it is
    the root minimal of the concept's subtree, known without this scan.
    """
    for m in fam.minimals():
        if is_subset(m, pattern):
            return m
    raise ValueError("family member lies above no minimal member")


def closure_and_extent(
    ctx: ObjectContext,
    fam: PatternFamily,
    abstraction: ExtensionalAbstraction,
    pattern: int,
    extent: int,
) -> tuple[int, int]:
    """(abstract support closure, abstract support) of a family member.

    ``extent`` is the pattern's plain support, ``extension(ctx, pattern)``,
    or any superset X of it with ``abstraction.apply(X)`` inside that support:
    the abstraction is an interior operator, so then ``apply(X)`` equals the
    abstract support and the result is the same.  A caller walking up the
    family carries such an X down from the pattern's parent.  The result is
    the powerset closure of the abstract support, projected at the pattern
    itself.  With an empty abstract support the powerset closure is the whole
    universe, so the result is the local top of the pattern's component.
    Raises ``ValueError`` (from the projection) for non-members.
    """
    abstract_extent = abstraction.apply(extent)
    return fam.project(pattern, intension(ctx, abstract_extent)), abstract_extent


def abstract_support_closure(
    ctx: ObjectContext,
    fam: PatternFamily,
    abstraction: ExtensionalAbstraction,
    pattern: int,
) -> int:
    """Support closure through an extensional abstraction."""
    return closure_and_extent(ctx, fam, abstraction, pattern, extension(ctx, pattern))[0]


def support_closure(ctx: ObjectContext, fam: PatternFamily, pattern: int) -> int:
    """Greatest family member above ``pattern`` with the same support set."""
    return abstract_support_closure(
        ctx, fam, ExtensionalAbstraction.identity(), pattern
    )


@dataclass(frozen=True)
class Concept:
    """A pair of mutually closed elements: abstract extent and closed intent."""

    extent: int
    intent: int
    anchor_minimal: int
    empty_support: bool


@dataclass(frozen=True)
class ConceptConfluence:
    """All concepts of a context over a family, ordered by intent inclusion."""

    concepts: tuple[Concept, ...]
    universe: Universe
    objects: tuple[str, ...]

    def intents(self) -> tuple[int, ...]:
        return tuple(c.intent for c in self.concepts)

    def __iter__(self):
        return iter(self.concepts)

    def __len__(self) -> int:
        return len(self.concepts)


def build_concept_confluence(
    ctx: ObjectContext,
    fam: PatternFamily,
    abstraction: ExtensionalAbstraction | None = None,
) -> ConceptConfluence:
    """Enumerate every concept via the miner, sorted by (size, mask) of intent."""
    from . import miner  # deferred: the miner builds on this module

    abstraction = abstraction or ExtensionalAbstraction.identity()
    cfg = miner.MinerConfig(family=fam, context=ctx, abstraction=abstraction)
    concepts = [ev.concept for ev in miner.mine(cfg)]
    concepts.sort(key=lambda c: (c.intent.bit_count(), c.intent))
    return ConceptConfluence(tuple(concepts), fam.universe, ctx.objects)


def verify_extent_decomposition(
    ctx: ObjectContext, fam: PatternFamily, members: Sequence[int]
) -> tuple[bool, tuple[int, ...], tuple[int, ...]]:
    """Check that the family's extent image equals the union over minimal members
    of the ranges of the local closures extension . project_m . intension.

    ``members`` is the materialized family.  Returns (equal, only_left,
    only_right) with the set differences as witnesses.
    """
    left = {extension(ctx, t) for t in members}
    right: set[int] = set()
    for m in fam.minimals():
        ext_m = extension(ctx, m)
        sub = ext_m
        while True:
            # all subsets of ext_m, descending enumeration trick
            q = intension(ctx, sub)
            right.add(extension(ctx, fam.project(m, q)))
            if sub == 0:
                break
            sub = (sub - 1) & ext_m
    return (left == right, tuple(sorted(left - right)), tuple(sorted(right - left)))


@dataclass(frozen=True)
class ExistenceVerdict:
    """Whether a support closure exists for every context over a candidate family."""

    exists: bool
    witness: tuple[int, int, int] | None = None
    counterexample_context: ObjectContext | None = None
    conflicting_maximals: tuple[int, ...] = ()


def support_closure_existence_check(
    patterns: Sequence[int], universe: Universe
) -> ExistenceVerdict:
    """Decide whether support closures exist over a candidate family for every context.

    They do exactly when the family is a subconfluence of the powerset.  For a
    violating triple (t, x, y) the single-object context described by x | y
    exhibits two maximal members with the same support above t, so no monotone
    closure can pick one.
    """
    witness = subconfluence_violation(patterns)
    if witness is None:
        return ExistenceVerdict(True)
    t, x, y = witness
    d = x | y
    ctx = ObjectContext(("o",), (d,), universe)
    inside = [q for q in patterns if is_subset(t, q) and is_subset(q, d)]
    maximals = tuple(
        q for q in inside if not any(r != q and is_subset(q, r) for r in inside)
    )
    return ExistenceVerdict(False, witness, ctx, maximals)


def load_context(lines: Iterable[str]) -> list[tuple[str, tuple[str, ...]]]:
    """Parse a context file: one object per line, ``name: item item ...``."""
    rows: list[tuple[str, tuple[str, ...]]] = []
    seen: set[str] = set()
    for lineno, line in content_lines(lines):
        if ":" not in line:
            raise ParseError(lineno, "expected 'object: item item ...'")
        name, rest = line.split(":", 1)
        name = name.strip()
        if not name:
            raise ParseError(lineno, "empty object name")
        if name in seen:
            raise ParseError(lineno, f"duplicate object {name!r}")
        seen.add(name)
        rows.append((name, tuple(rest.split())))
    return rows


def context_from_rows(
    rows: Sequence[tuple[str, Sequence[str]]], universe: Universe
) -> ObjectContext:
    descriptions = []
    for name, items in rows:
        try:
            descriptions.append(universe.mask(items))
        except KeyError as exc:
            raise ContextError(f"object {name!r}: {exc.args[0]}") from None
    return ObjectContext(tuple(r[0] for r in rows), tuple(descriptions), universe)


def load_abstraction(lines: Iterable[str], objects: Sequence[str]) -> ExtensionalAbstraction:
    """Parse an abstraction file: one generator extent per line, object names."""
    index = {o: i for i, o in enumerate(objects)}
    generators = []
    for lineno, line in content_lines(lines):
        try:
            generators.append(mask_of(index[o] for o in line.split()))
        except KeyError as exc:
            raise ParseError(lineno, f"unknown object {exc.args[0]!r}") from None
    return ExtensionalAbstraction.from_generators(generators)
