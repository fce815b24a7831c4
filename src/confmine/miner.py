"""Depth-first listing of (abstract) support-closed patterns of a strongly
accessible family, each emitted exactly once.

The traversal keeps two exclusion lists.  The outer loop walks minimal family
members in mask order: each minimal's closure roots a subtree, and once a
minimal has been handled it joins the minimal-exclusion list so that later
subtrees skip every closure containing it (a closure containing an earlier
minimal was already reached from that minimal's subtree).  Inside a subtree,
an item exclusion list extended left-to-right across sibling branches prevents
revisiting patterns through a different augmentation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

from .families import ExplicitFamily, PatternFamily, is_strongly_accessible
from .fca import Concept, ExtensionalAbstraction, ObjectContext, closure_and_extent
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


@dataclass(frozen=True)
class MineEvent:
    """A closed pattern emission; ``parent_intent`` is its enumeration-tree parent."""

    concept: Concept
    parent_intent: int | None


@dataclass(frozen=True)
class PruneEvent:
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


@dataclass(frozen=True)
class MinimalEvent:
    """Outer-loop bookkeeping: a minimal was processed and joined the exclusion list."""

    minimal: int
    enumerated: bool


TraceEvent = Union[MineEvent, PruneEvent, MinimalEvent]


def _first_including(pattern: int, excluded_minimals: Iterable[int]) -> int | None:
    outside = ~pattern  # is_subset inlined: this scan runs once per closure
    for m in excluded_minimals:
        if not m & outside:
            return m
    return None


def close_pattern(cfg: MinerConfig, pattern: int) -> tuple[int, int]:
    """Close a family member: (closed pattern, abstract extent).

    The powerset closure of the abstract support (the whole universe when that
    support is empty), projected at the pattern; ``ValueError`` for non-members.
    """
    return closure_and_extent(cfg.context, cfg.family, cfg.abstraction, pattern)


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
    excluded: list[int] = []
    for m in fam.minimals():
        p, abstract_extent = close_pattern(cfg, m)
        blocker = _first_including(p, excluded)
        if blocker is None:
            # m anchors every concept of its subtree: those closures contain m
            # and, having passed the exclusion check, no earlier minimal, and
            # minimals() is sorted by mask.
            yield from _enum_closed(cfg, p, m, abstract_extent, None, tuple(excluded), [])
            enumerated = True
        else:
            yield PruneEvent(p, None, blocked_by_minimal=blocker, at_root=True)
            enumerated = False
        # The minimal joins the exclusion list whether or not its closure was
        # expanded: any closed pattern containing it also contains the earlier
        # minimal that blocked it, so only duplicates are ever pruned.
        excluded.append(m)
        yield MinimalEvent(m, enumerated)


def _enum_closed(
    cfg: MinerConfig,
    pattern: int,
    anchor: int,
    abstract_extent: int,
    parent: int | None,
    excluded_minimals: tuple[int, ...],
    excluded_items: list[int],
) -> Iterator[TraceEvent]:
    concept = Concept(
        extent=abstract_extent,
        intent=pattern,
        anchor_minimal=anchor,
        empty_support=abstract_extent == 0,
    )
    yield MineEvent(concept, parent)
    if abstract_extent == 0:
        # The pattern is a local top; nothing above it can change support.
        return
    excluded_items = list(excluded_items)
    for e in cfg.family.augmentations(pattern):
        q, q_extent = close_pattern(cfg, pattern | (1 << e))
        if not is_subset(pattern | (1 << e), q):
            raise ValueError(
                "family projection is not extensive; the family violates its contract"
            )
        blocker = _first_including(q, excluded_minimals)
        if blocker is not None:
            yield PruneEvent(q, pattern, blocked_by_minimal=blocker)
            continue
        hit = next((i for i in excluded_items if (q >> i) & 1), None)
        if hit is not None:
            yield PruneEvent(q, pattern, blocked_by_item=hit)
            continue
        yield from _enum_closed(
            cfg, q, anchor, q_extent, pattern, excluded_minimals, excluded_items
        )
        excluded_items.append(e)


def mine(cfg: MinerConfig) -> Iterator[MineEvent]:
    """Stream every (abstract) support-closed pattern of the family exactly once."""
    events = (ev for ev in mine_trace(cfg) if isinstance(ev, MineEvent))
    if not cfg.emit_empty_support:
        events = (ev for ev in events if not ev.concept.empty_support)
    return events
