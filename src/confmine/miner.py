"""Depth-first listing of (abstract) support-closed patterns of a strongly
accessible family, each emitted exactly once.

The outer loop walks minimal family members in mask order, and each minimal's
closure roots a subtree.  A closed pattern is enumerated only in the subtree
of its anchor, the least-mask minimal inside it (``fca.anchor_minimal``):
every closure of the subtree of m contains m, so a closure whose anchor is not
m contains an earlier minimal and is pruned as a duplicate.  Inside a subtree,
an item exclusion mask (Boley et al., TCS 2010), extended left-to-right across
sibling branches, prevents revisiting patterns through a different
augmentation order.  The traversal runs on an explicit stack, so tree depth is
bounded by memory alone, not by Python's recursion limit.

The family answers for its own strong accessibility
(``PatternFamily.strongly_accessible``), checked once before the walk.  Every
concept is emitted, those with an empty abstract support included: they are
flagged and never expanded, and dropping them is left to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Union

from .families import PatternFamily
from .fca import (
    Concept,
    ExtensionalAbstraction,
    ObjectContext,
    anchor_minimal,
    closure_and_extent,
    extension,
)


class NotStronglyAccessibleError(ValueError):
    def __init__(self, witness: tuple[int, int], message: str):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class MinerConfig:
    """What to mine: a family and a context sharing one universe, and the
    extensional abstraction that supports are read through."""

    family: PatternFamily
    context: ObjectContext
    abstraction: ExtensionalAbstraction = field(
        default_factory=ExtensionalAbstraction.identity
    )

    def __post_init__(self):
        if self.family.universe != self.context.universe:
            raise ValueError("family and context must share the item universe")


# Trace events are named tuples, not frozen dataclasses: the miner builds one
# per closure, and a tuple is built without a ``__setattr__`` call per field.
# They stay immutable and hashable, but compare equal to any tuple of their
# fields, so tell the kinds apart with ``isinstance``.
class MineEvent(NamedTuple):
    """A closed pattern emission; ``parent_intent`` is its enumeration-tree parent."""

    concept: Concept
    parent_intent: int | None


class PruneEvent(NamedTuple):
    """A closure that was computed but not expanded.

    Exactly one of ``blocked_by_minimal`` (the closure's anchor, a minimal
    before the subtree's root) and ``blocked_by_item`` (the least item of the
    exclusion mask inside the closure) is set; ``at_root`` marks prunes of a
    minimal's own closure in the outer loop.
    """

    closure: int
    parent_intent: int | None
    blocked_by_minimal: int | None = None
    blocked_by_item: int | None = None
    at_root: bool = False


class MinimalEvent(NamedTuple):
    """Outer-loop bookkeeping: a minimal was processed; ``enumerated`` when it
    anchors its own closure, so that its subtree ran."""

    minimal: int
    enumerated: bool


TraceEvent = Union[MineEvent, PruneEvent, MinimalEvent]


def close_pattern(
    cfg: MinerConfig, pattern: int, extent: int, *, checked: bool = True
) -> tuple[int, int]:
    """Close a family member carrying ``extent``: (closed pattern, abstract extent).

    ``extent`` is the pattern's plain support or any superset X of it with
    ``apply(X)`` inside that support, as for ``fca.closure_and_extent``.  Returns the
    powerset closure of the abstract support (the universe when it is empty),
    projected at the pattern.  Raises ``ValueError`` for a non-extensive
    projection, and, unless ``checked`` is false, for a non-member pattern.
    """
    return closure_and_extent(
        cfg.context, cfg.family, cfg.abstraction, pattern, extent, checked=checked
    )


def mine_trace(cfg: MinerConfig) -> Iterator[TraceEvent]:
    """Full traversal trace: emissions, prunes, and minimal bookkeeping.

    A family whose ``strongly_accessible()`` fails is rejected up front.
    """
    verdict = cfg.family.strongly_accessible()
    if not verdict:
        t1, t2 = verdict.witness
        u = cfg.family.universe
        raise NotStronglyAccessibleError(
            verdict.witness,
            "family is not strongly accessible: no single-item chain "
            f"from {u.format(t1)} to {u.format(t2)}",
        )
    return _mine_trace_iter(cfg)


def _mine_trace_iter(cfg: MinerConfig) -> Iterator[TraceEvent]:
    fam = cfg.family
    ctx = cfg.context
    tids = ctx.tids
    for m in fam.minimals():
        m_extent = extension(ctx, m)
        # Unchecked: each base is a minimal or ``pattern + e`` for an augmentation
        # e, so a member, and lies in the intension of apply(X) ⊆ its extent.
        p, abstract_extent = close_pattern(cfg, m, m_extent, checked=False)
        root_anchor = anchor_minimal(fam, p)
        if root_anchor == m:
            # m anchors every concept of its subtree: each closure there
            # contains m, so one whose anchor is not m holds an earlier
            # minimal, whose subtree reached it, and is pruned.
            yield MineEvent(Concept(abstract_extent, p, m, abstract_extent == 0), None)
            # Depth-first over frames (closed pattern q, carried extent X,
            # pending augmentations, item exclusion mask).  X is the extent
            # q's closure was called with: ext(m) at the root, the parent
            # frame's X & tids[e] for a child.  Invariant: X ⊇ ext(q) and
            # apply(X) ⊆ ext(q).  As apply is an interior operator,
            # apply(X & t) == apply(ext(q) & t) for every t, so a child closes
            # from X & tids[e] exactly as from its own plain extent, and its
            # frame keeps the invariant.  A frame that expands a child goes
            # back on the stack under it, its mask extended by the child's
            # item, so sibling branches never revisit each other's patterns.
            stack = [(p, m_extent, iter(fam.augmentations(p)), 0)] if abstract_extent else []
            while stack:
                pattern, ext, pending, excluded = stack.pop()
                for e in pending:
                    child = pattern | (1 << e)
                    child_extent = ext & tids[e]
                    q, q_extent = close_pattern(cfg, child, child_extent, checked=False)
                    anchor = anchor_minimal(fam, q)
                    if anchor != m:
                        yield PruneEvent(q, pattern, anchor)
                        continue
                    hit = q & excluded
                    if hit:
                        yield PruneEvent(q, pattern, None, (hit & -hit).bit_length() - 1)
                        continue
                    yield MineEvent(Concept(q_extent, q, m, q_extent == 0), pattern)
                    if q_extent == 0:
                        # A local top: nothing above it can change support.
                        excluded |= 1 << e
                        continue
                    stack.append((pattern, ext, pending, excluded | 1 << e))
                    stack.append((q, child_extent, iter(fam.augmentations(q)), excluded))
                    break
        else:
            yield PruneEvent(p, None, root_anchor, None, True)
        yield MinimalEvent(m, root_anchor == m)


def mine(cfg: MinerConfig) -> Iterator[MineEvent]:
    """Stream every (abstract) support-closed pattern of the family exactly once,
    empty-support concepts (flagged, never expanded) included."""
    return (ev for ev in mine_trace(cfg) if type(ev) is MineEvent)
