"""Depth-first listing of (abstract) support-closed patterns of a strongly
accessible family, each emitted exactly once.

The outer loop walks minimal family members in mask order, and each minimal's
closure roots a subtree.  A closed pattern is enumerated only in the subtree
of its anchor, the least-mask minimal inside it (``fca.anchor_minimal``):
every closure of the subtree of m contains m, so a closure whose anchor is not
m contains an earlier minimal and is pruned as a duplicate.

In a confluence, m ≤ t ≤ x gives project_t(x) == project_m(x), so every
closure above m is fixed by its abstract support alone, and the miner closes
each support once.  Inside a subtree, a child whose support was closed before
there reaches a concept already emitted or pruned there, and is skipped with
no event; this does the work of the item exclusion mask of Boley et al. (TCS
2010), which closed such children only to prune them.  Across roots, a minimal
whose support last closed to a pattern containing it has that pattern as its
closure, anchored at an earlier minimal, so it is not closed again.  The
explicit stack is the path from the root closure down to the current closure,
so tree depth is bounded by memory alone, not by Python's recursion limit.

The family answers for its own strong accessibility
(``PatternFamily.strongly_accessible``), checked once before the walk.  Every
concept is emitted; one with extent 0, an empty abstract support, has a local
top as its closure, with no augmentation, and dropping it is left to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

from .families import PatternFamily
from .fca import (
    ExtensionalAbstraction,
    ObjectContext,
    anchor_minimal,
    closure,
    extension,
)
from .patterns import Universe


class Concept(NamedTuple):
    """A pair of mutually closed elements: abstract extent and closed intent.
    ``anchor_minimal`` is the root minimal of the subtree that emitted it, which
    is the least-mask minimal inside the intent."""

    extent: int
    intent: int
    anchor_minimal: int


class NotStronglyAccessibleError(ValueError):
    """``witness`` is a nested member pair (t1, t2) with no single-item chain between."""

    def __init__(self, witness: tuple[int, int], universe: Universe):
        t1, t2 = witness
        super().__init__(
            "family is not strongly accessible: no single-item chain "
            f"from {universe.format(t1)} to {universe.format(t2)}"
        )
        self.witness = witness


@dataclass(frozen=True)
class MinerConfig:
    """What to mine: a family and a context sharing one universe, and the
    extensional abstraction that supports are read through."""

    family: PatternFamily
    context: ObjectContext
    abstraction: ExtensionalAbstraction = ExtensionalAbstraction()

    def __post_init__(self):
        if self.family.universe != self.context.universe:
            raise ValueError("family and context must share the item universe")


# Trace events, and the Concept an emission carries, are named tuples, not
# frozen dataclasses: the miner builds one per closure, with no ``__setattr__``
# call per field.  They stay immutable and hashable, but compare equal to any
# tuple of their fields, so tell the kinds apart with ``isinstance``.
class MineEvent(NamedTuple):
    """A closed pattern emission; ``parent_intent`` is its enumeration-tree parent."""

    concept: Concept
    parent_intent: int | None


class PruneEvent(NamedTuple):
    """A closure that was computed but not expanded, because its anchor,
    ``blocked_by_minimal``, is a minimal before the subtree's root; a prune of
    a minimal's own closure in the outer loop has no parent."""

    closure: int
    parent_intent: int | None
    blocked_by_minimal: int
    blocked_by_item = None  # read by bench/spans.py and bench/test_bench.py; ROADMAP item 1 deletes it

    @property
    def at_root(self) -> bool:
        """``parent_intent is None``; derived, and read by the benchmark like ``blocked_by_item``."""
        return self.parent_intent is None


class MinimalEvent(NamedTuple):
    """Outer-loop bookkeeping: a minimal was processed; ``enumerated`` when it
    anchors its own closure, so that its subtree ran.  A minimal whose closure
    an earlier root already computed gets this event alone."""

    minimal: int
    enumerated: bool


TraceEvent = Union[MineEvent, PruneEvent, MinimalEvent]


def close_pattern(cfg: MinerConfig, pattern: int, support: int) -> int:
    """Close a family member the miner built, given its abstract support.

    ``fca.closure`` without the argument checks: each base is a minimal or
    ``pattern + e`` for an augmentation e, so a member, and lies in the
    intension of its abstract support.  Every closure of the walk is one call
    of this module global.
    """
    return closure(cfg.context, cfg.family, pattern, support, checked=False)


def mine_trace(cfg: MinerConfig) -> Iterator[TraceEvent]:
    """Full traversal trace: emissions, prunes, and minimal bookkeeping.

    A family whose ``strongly_accessible()`` fails is rejected up front.
    """
    verdict = cfg.family.strongly_accessible()
    if not verdict:
        raise NotStronglyAccessibleError(verdict.witness, cfg.family.universe)
    return _mine_trace_iter(cfg)


def _mine_trace_iter(cfg: MinerConfig) -> Iterator[TraceEvent]:
    fam = cfg.family
    ctx = cfg.context
    tids = ctx.tids
    apply = cfg.abstraction.apply
    root_closures: dict[int, int] = {}  # support -> last root closure made with it
    for m in fam.minimals():
        support = apply(extension(ctx, m))
        known = root_closures.get(support)
        if known is not None and not m & ~known:
            yield MinimalEvent(m, False)
            continue
        p = close_pattern(cfg, m, support)
        root_closures[support] = p
        root_anchor = anchor_minimal(fam, p)
        if root_anchor != m:
            yield PruneEvent(p, None, root_anchor)
            yield MinimalEvent(m, False)
            continue
        # m anchors its subtree: a closure there whose anchor is not m holds an
        # earlier minimal, whose subtree reached it, and is pruned.
        yield MineEvent(Concept(support, p, m), None)
        # Frames: (closed pattern q, its abstract support A, pending
        # augmentations).  apply is an interior operator, so apply(A & t) ==
        # apply(ext(q) & t).
        closed: set[int] = set()  # the supports closed so far in this subtree
        stack = [(p, support, iter(fam.augmentations(p)))]
        while stack:
            pattern, ext, pending = stack[-1]
            for e in pending:
                child_support = apply(ext & tids[e])
                if child_support in closed:
                    continue
                closed.add(child_support)
                q = close_pattern(cfg, pattern | 1 << e, child_support)
                anchor = anchor_minimal(fam, q)
                if anchor != m:
                    yield PruneEvent(q, pattern, anchor)
                    continue
                yield MineEvent(Concept(child_support, q, m), pattern)
                stack.append((q, child_support, iter(fam.augmentations(q))))
                break
            else:
                stack.pop()
        yield MinimalEvent(m, True)


def mine(cfg: MinerConfig) -> Iterator[Concept]:
    """Stream every (abstract) support-closed pattern of the family exactly once,
    empty-support concepts (extent 0) included, each a local top with no augmentation."""
    return (ev.concept for ev in mine_trace(cfg) if type(ev) is MineEvent)


def build_concept_confluence(
    ctx: ObjectContext,
    fam: PatternFamily,
    abstraction: ExtensionalAbstraction = ExtensionalAbstraction(),
) -> tuple[Concept, ...]:
    """Every concept, enumerated by ``mine``, sorted by (size, mask) of intent."""
    concepts = mine(MinerConfig(fam, ctx, abstraction))
    return tuple(sorted(concepts, key=lambda c: (c.intent.bit_count(), c.intent)))
