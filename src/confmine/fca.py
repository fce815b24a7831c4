"""Object contexts, the (intension, extension) Galois connection, extensional
abstractions, and support closures over pattern families.

The support closure of a family member t is the greatest family member above t
with the same (abstract) support set: project the plain powerset closure
intension(extension(t)) onto the family at any minimal member below t.  In a
confluence every minimal m below t gives the same projection, and so does t
itself (m <= t <= x makes project_t(x) == project_m(x)), so closures project
from the pattern and never look up a minimal.  ``closure`` is the one closure
formula, project_t(intension(S)) for an abstract support S = A(extension(t))
that the caller computes; ``support_closure`` is its plain-support wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import or_
from typing import Iterable, Iterator, Sequence

from .families import ParseError, PatternFamily, subconfluence_violation
from .patterns import Universe, and_rows, content_lines, is_subset, iter_indices

TIDSET_BLOCK = 2048  # rows transposed at a time by ObjectContext.tids


class ContextError(ValueError):
    """Invalid context construction or query."""


@dataclass(frozen=True)
class ObjectContext:
    """Named objects described by patterns over a shared item universe; the
    objects are a ``Universe`` too, so bit o of an extent is ``objects.names[o]``."""

    objects: Universe
    descriptions: tuple[int, ...]
    universe: Universe

    def __post_init__(self):
        if self.objects.size != len(self.descriptions):
            raise ContextError("description count does not match object count")
        for d in self.descriptions:
            if d & ~self.universe.full_mask:
                raise ContextError("description uses items outside the universe")

    @cached_property
    def tids(self) -> tuple[int, ...]:
        """Item-major tidsets: bit o of ``tids[i]`` is set when object o has item i.

        Derived on first use and kept; the context stays immutable in effect.

        Built by transposing the description bit matrix with C-level string
        operations, ``TIDSET_BLOCK`` rows at a time: the vertical layout Eclat
        reads, built as LCM builds its occurrence lists.  ``bin(d | 1 << w)``
        is ``0b1`` and the w bits of d, most significant first; joined in
        reverse object order, they put item i of every object in a block at
        stride w + 3 from offset w + 2 - i, so each item's part of the block
        is one slice parsed in base 2 (exempt from ``int``'s digit limit),
        then shifted to the block's first object.  That costs about 5 ns per
        (object, item) cell and 0.2 µs per item and block, whatever the items
        per object.  One block's strings hold about min(objects, 2,048) ×
        (2 × items + 55) bytes beyond the tidsets: 10 KB on a 100 × 24
        context, 190 KB at 10,000 × 20, 4 MB at 20,000 × 1,000.
        """
        rows = self.descriptions
        w = self.universe.size
        tids = [0] * w
        for start in range(0, len(rows), TIDSET_BLOCK):
            block = reversed(rows[start : start + TIDSET_BLOCK])
            bits = "".join(map(bin, map(or_, block, repeat(1 << w))))
            for i in range(w):
                tids[i] |= int(bits[w + 2 - i :: w + 3], 2) << start
            del bits  # before the next block's strings are made
        return tuple(tids)


def extension(ctx: ObjectContext, pattern: int) -> int:
    """Support set of a pattern: objects whose description contains it.

    The AND of the pattern's item tidsets; items outside the universe have no
    objects.
    """
    if pattern & ~ctx.universe.full_mask:
        return 0
    return and_rows(pattern, ctx.tids, ctx.objects.full_mask)


def extensions(ctx: ObjectContext, patterns: Iterable[int]) -> Iterator[int]:
    """``extension`` of each pattern, in input order, sharing ANDs between
    neighbours.

    Eclat's prefix-based tidset intersection (Zaki 2000): ``ands[j]`` is the
    AND of the tidsets of the previous pattern's j + 1 highest items.  The
    next pattern keeps the entries for the items above the highest bit where
    the two differ and pushes its own items below that bit, one AND each.
    Exact in any order; sorted input shares the most, as neighbours then agree
    on their high items.  The stack holds at most one entry per item.
    """
    full = ctx.universe.full_mask
    everyone = ctx.objects.full_mask
    tids = ctx.tids
    ands: list[int] = []
    prev = 0
    for t in patterns:
        if t & ~full:
            yield 0
            continue
        top = (t ^ prev).bit_length()
        del ands[(prev >> top).bit_count() :]
        e = ands[-1] if ands else everyone
        rest = t & ((1 << top) - 1)
        while rest:
            i = rest.bit_length() - 1
            rest ^= 1 << i
            e &= tids[i]
            ands.append(e)
        prev = t
        yield e


def intension(ctx: ObjectContext, extent: int) -> int:
    """Intersection of the descriptions over an extent; the full universe if empty."""
    if extent & ~ctx.objects.full_mask:  # objects outside the context have no items
        return 0
    return and_rows(extent, ctx.descriptions, ctx.universe.full_mask)


@dataclass(frozen=True)
class ExtensionalAbstraction:
    """A union-closed object-set family containing the empty set, as an interior.

    Two concrete shapes: a frequency threshold (extents below the minimum
    support collapse to the empty set), when ``generators`` is None, and an
    explicit generator list (the interior of an extent is the union of the
    generators it contains).  The identity abstraction is the threshold 0.
    The constructor rejects a negative threshold and a threshold given with
    generators, and keeps the generators sorted and deduplicated, so
    ``frequency`` and ``from_generators`` are only its spellings.
    """

    threshold: int = 0
    generators: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError("minimum support must be nonnegative")
        if self.generators is not None:
            if self.threshold:
                raise ValueError("a threshold cannot be given with generators")
            object.__setattr__(self, "generators", tuple(sorted(set(self.generators))))

    @classmethod
    def frequency(cls, min_support: int) -> "ExtensionalAbstraction":
        return cls(min_support)

    @classmethod
    def from_generators(cls, generators: Iterable[int]) -> "ExtensionalAbstraction":
        return cls(0, tuple(generators))

    def apply(self, extent: int) -> int:
        """Interior of an extent: the greatest abstraction member inside it."""
        if self.generators is None:
            return extent if extent.bit_count() >= self.threshold else 0
        acc = 0
        for g in self.generators:
            if is_subset(g, extent):
                acc |= g
        return acc



def anchor_minimal(fam: PatternFamily, pattern: int) -> int:
    """The least-mask minimal family member inside a pattern.

    This is the anchor of the pattern's concept, and the miner's duplicate
    test: a closure is enumerated only in the subtree of its anchor.  A
    minimal inside the pattern has its highest item in the pattern, and a
    mask with a lower highest item is the smaller mask, so the pattern's items
    are walked upward through ``fam.minimals_by_top`` and the first minimal
    inside it is the anchor: no scan of every minimal per closure.  Items
    outside the universe hold no minimal and have no group, so are not walked.
    """
    groups = fam.minimals_by_top
    outside = ~pattern  # is_subset and iter_indices inlined: this runs once per closure
    rest = pattern & fam.universe.full_mask
    while rest:
        low = rest & -rest
        for m in groups[low.bit_length()]:  # the group of item bit_length - 1
            if not m & outside:
                return m
        rest ^= low
    if groups[0]:  # the empty pattern is a member, so the only minimal
        return 0
    raise ValueError("family member lies above no minimal member")


def closure(
    ctx: ObjectContext,
    fam: PatternFamily,
    pattern: int,
    support: int,
    *,
    checked: bool = True,
) -> int:
    """Abstract support closure of a family member whose abstract support is
    ``support``: the powerset closure of ``support``, projected at the pattern.

    Applying the abstraction is the caller's job; under the identity the
    support is ``extension(ctx, pattern)``.  An empty support has the whole
    universe as its powerset closure, so the result is the local top of the
    pattern's component.  Raises ``ValueError`` (from the projection) for a
    non-extensive projection, and, unless ``checked`` is false, for a
    non-member pattern.
    """
    return fam.project(pattern, intension(ctx, support), checked=checked)


def support_closure(ctx: ObjectContext, fam: PatternFamily, pattern: int) -> int:
    """Greatest family member above ``pattern`` with the same support set:
    ``closure`` of the plain support."""
    return closure(ctx, fam, pattern, extension(ctx, pattern))


def verify_extent_decomposition(
    ctx: ObjectContext, fam: PatternFamily, members: Sequence[int]
) -> tuple[bool, tuple[int, ...], tuple[int, ...]]:
    """Check that the family's extent image equals the union over minimal members
    of the ranges of the local closures extension . project_m . intension.

    ``members`` is the materialized family.  Returns (equal, only_left,
    only_right) with the set differences as witnesses.  The values of
    ``intension(S)`` over subsets S of ext(m) are the full universe (S empty)
    and every intersection of the descriptions of ext(m)'s objects, built one
    object at a time, so each distinct value is projected once and no subset
    of ext(m) is enumerated.
    """
    left = set(extensions(ctx, members))
    right: set[int] = set()
    for m in fam.minimals():
        meets = {ctx.universe.full_mask}
        for o in iter_indices(extension(ctx, m)):
            d = ctx.descriptions[o]
            meets |= {x & d for x in meets}
        right.update(extension(ctx, fam.project(m, q)) for q in meets)
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
    ctx = ObjectContext(Universe(("o",)), (d,), universe)
    inside = [q for q in patterns if is_subset(t, q) and is_subset(q, d)]
    maximals = tuple(
        q for q in inside if not any(r != q and is_subset(q, r) for r in inside)
    )
    return ExistenceVerdict(False, witness, ctx, maximals)


def load_context(lines: Sequence[str]) -> list[tuple[str, tuple[str, ...]]]:
    """Parse a context file: one object per line, ``name: item item ...``.

    An object name is one token, as the output and abstraction files split
    names on whitespace, and no name is ``{}``, which prints an empty set.
    Every occurrence of an item name is the same ``str`` object, so a context
    holds one string per distinct item, not one per token.
    """
    rows: list[tuple[str, tuple[str, ...]]] = []
    seen = {"{}"}  # so an object named {} is caught by the duplicate test
    items: dict[str, str] = {}
    intern = items.setdefault
    for lineno, line in content_lines(lines):
        name, colon, rest = line.partition(":")
        if not colon:
            raise ParseError(lineno, "expected 'object: item item ...'")
        try:
            (name,) = name.split()
        except ValueError:
            name = name.strip()
            raise ParseError(lineno, f"object name {name!r} is not one token" if name else "empty object name") from None
        if name in seen:
            raise ParseError(lineno, f"duplicate object {name!r}" if name != "{}" else "'{}' cannot name an object")
        seen.add(name)
        tokens = rest.split()
        rows.append((name, tuple(map(intern, tokens, tokens))))
    if "{}" in items:  # checked once per file; the line is looked up only on failure
        lineno = next(n for n, line in content_lines(lines) if "{}" in line.partition(":")[2].split())
        raise ParseError(lineno, "'{}' cannot name an item")
    return rows


def context_from_rows(
    rows: Sequence[tuple[str, Sequence[str]]], universe: Universe
) -> ObjectContext:
    descriptions = []
    for name, items in rows:
        try:
            descriptions.append(universe.mask(items))
        except KeyError as exc:
            raise ContextError(f"object {name!r}: unknown item {exc.args[0]!r}") from None
    return ObjectContext(Universe([name for name, _ in rows]), tuple(descriptions), universe)


def load_abstraction(lines: Iterable[str], objects: Universe) -> ExtensionalAbstraction:
    """Parse an abstraction file: one generator extent per line, object names,
    masked over a context's ``objects``."""
    generators = []
    for lineno, line in content_lines(lines):
        try:
            generators.append(objects.mask(line.split()))
        except KeyError as exc:
            raise ParseError(lineno, f"unknown object {exc.args[0]!r}") from None
    return ExtensionalAbstraction.from_generators(generators)
