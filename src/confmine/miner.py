"""Depth-first listing of (abstract) support-closed patterns of a strongly
accessible family, each emitted exactly once.

The traversal keeps two exclusion lists.  The outer loop walks minimal family
members in mask order: each minimal's closure roots a subtree, and once a
minimal has been handled it joins the minimal-exclusion list so that later
subtrees skip every closure containing it (a closure containing an earlier
minimal was already reached from that minimal's subtree).  Inside a subtree,
an item exclusion list extended left-to-right across sibling branches prevents
revisiting patterns through a different augmentation order.  The traversal
runs on an explicit stack, so tree depth is bounded by memory alone, not by
Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Union

from .families import ExplicitFamily, PatternFamily, is_strongly_accessible
from .fca import (
    Concept,
    ExtensionalAbstraction,
    ObjectContext,
    closure_and_extent,
    extension,
)
from .patterns import is_subset


class NotStronglyAccessibleError(ValueError):
    def __init__(self, witness: tuple[int, int], message: str | None = None):
        super().__init__(
            message
            or f"family is not strongly accessible: no augmentation chain for {witness!r}"
        )
        self.witness = witness


@dataclass(frozen=True)
class MinerConfig:
    """What to mine: a family and a context sharing one universe, plus options.

    ``emit_empty_support`` keeps concepts whose abstract support is empty
    (exactly the local tops under a too-strict abstraction); they are flagged
    either way and never expanded.
    """

    family: PatternFamily
    context: ObjectContext
    abstraction: ExtensionalAbstraction = field(
        default_factory=ExtensionalAbstraction.identity
    )
    emit_empty_support: bool = True

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

    Exactly one of ``blocked_by_minimal`` (closure contains an excluded
    minimal) and ``blocked_by_item`` (closure hits the item exclusion list)
    is set; ``at_root`` marks prunes of a minimal's own closure in the outer
    loop.
    """

    closure: int
    parent_intent: int | None
    blocked_by_minimal: int | None = None
    blocked_by_item: int | None = None
    at_root: bool = False


class MinimalEvent(NamedTuple):
    """Outer-loop bookkeeping: a minimal was processed and joined the exclusion list."""

    minimal: int
    enumerated: bool


TraceEvent = Union[MineEvent, PruneEvent, MinimalEvent]


def _first_including(pattern: int, excluded: Iterable[int]) -> int | None:
    """The first mask of ``excluded`` inside ``pattern``; serves both exclusion
    lists, since a one-bit mask lies inside ``pattern`` exactly when its item does."""
    outside = ~pattern  # is_subset inlined: this scan runs once or twice per closure
    for m in excluded:
        if not m & outside:
            return m
    return None


def close_pattern(cfg: MinerConfig, pattern: int, extent: int) -> tuple[int, int]:
    """Close a family member carrying ``extent``: (closed pattern, abstract extent).

    ``extent`` is the pattern's plain support or any superset X of it with
    ``apply(X)`` inside that support, as for ``fca.closure_and_extent``.  The
    powerset closure of the abstract support (the whole universe when that
    support is empty), projected at the pattern; ``ValueError`` for non-members.
    """
    return closure_and_extent(cfg.context, cfg.family, cfg.abstraction, pattern, extent)


def mine_trace(cfg: MinerConfig) -> Iterator[TraceEvent]:
    """Full traversal trace: emissions, prunes, and minimal bookkeeping.

    Explicit families are rejected up front unless strongly accessible;
    implicit families are trusted per their constructor guarantees.
    """
    if isinstance(cfg.family, ExplicitFamily):
        verdict = is_strongly_accessible(cfg.family.patterns)
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
    excluded: list[int] = []
    for m in fam.minimals():
        m_extent = extension(ctx, m)
        p, abstract_extent = close_pattern(cfg, m, m_extent)
        blocker = _first_including(p, excluded)
        if blocker is None:
            # m anchors every concept of its subtree: those closures contain m
            # and, having passed the exclusion check, no earlier minimal, and
            # minimals() is sorted by mask.
            yield MineEvent(Concept(abstract_extent, p, m, abstract_extent == 0), None)
            # Depth-first over frames (closed pattern q, carried extent X,
            # pending augmentations, item exclusion list as one-bit masks).  X
            # is the extent q's closure was called with: ext(m) at the root,
            # the parent frame's X & tids[e] for a child.  Invariant: X ⊇
            # ext(q) and apply(X) ⊆ ext(q).  As apply is an interior operator,
            # apply(X & t) == apply(ext(q) & t) for every t, so a child closes
            # from X & tids[e] exactly as from its own plain extent, and its
            # frame keeps the invariant.  A frame that expands a child goes
            # back on the stack under it, its list extended by the child's
            # item, so sibling branches never revisit each other's patterns.
            stack = [(p, m_extent, iter(fam.augmentations(p)), [])] if abstract_extent else []
            while stack:
                pattern, ext, pending, items = stack.pop()
                for e in pending:
                    child = pattern | (1 << e)
                    child_extent = ext & tids[e]
                    q, q_extent = close_pattern(cfg, child, child_extent)
                    if not is_subset(child, q):
                        raise ValueError(
                            "family projection is not extensive; the family violates its contract"
                        )
                    blocker = _first_including(q, excluded)
                    if blocker is not None:
                        yield PruneEvent(q, pattern, blocker)
                        continue
                    hit = _first_including(q, items)
                    if hit is not None:
                        yield PruneEvent(q, pattern, None, hit.bit_length() - 1)
                        continue
                    yield MineEvent(Concept(q_extent, q, m, q_extent == 0), pattern)
                    if q_extent == 0:
                        # A local top: nothing above it can change support.
                        items.append(1 << e)
                        continue
                    stack.append((pattern, ext, pending, items + [1 << e]))
                    stack.append((q, child_extent, iter(fam.augmentations(q)), items))
                    break
            enumerated = True
        else:
            yield PruneEvent(p, None, blocker, None, True)
            enumerated = False
        # The minimal joins the exclusion list whether or not its closure was
        # expanded: any closed pattern containing it also contains the earlier
        # minimal that blocked it, so only duplicates are ever pruned.
        excluded.append(m)
        yield MinimalEvent(m, enumerated)


def mine(cfg: MinerConfig) -> Iterator[MineEvent]:
    """Stream every (abstract) support-closed pattern of the family exactly once."""
    events = (ev for ev in mine_trace(cfg) if type(ev) is MineEvent)
    if not cfg.emit_empty_support:
        events = (ev for ev in events if not ev.concept.empty_support)
    return events
