"""Support-equivalence classes and the min-max implication basis.

Family members with the same support set form an equivalence class; its
minimal members are the generators and its support-closed members the class
representatives.  The basis pairs every generator with every closed member of
its class: internal implications go up the order, external ones connect
incomparable members anchored at different minimals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .families import PatternFamily
from .fca import ObjectContext, extension, support_closure
from .patterns import is_subset, minimal_masks


@dataclass(frozen=True)
class Implication:
    premise: int
    conclusion: int
    kind: str  # "internal" | "external"


@dataclass(frozen=True)
class EquivalenceClass:
    """All family members sharing one support set."""

    extent: int
    members: tuple[int, ...]
    generators: tuple[int, ...]
    closed: tuple[int, ...]


def equivalence_classes(
    ctx: ObjectContext, fam: PatternFamily, members: Sequence[int]
) -> list[EquivalenceClass]:
    """Group the materialized family by support set.

    Generators are the subset-minimal members of each class; closed members
    are the support-closure fixpoints.
    """
    by_extent: dict[int, list[int]] = {}
    for t in members:
        by_extent.setdefault(extension(ctx, t), []).append(t)
    classes = []
    for extent in sorted(by_extent):
        group = sorted(by_extent[extent])
        generators = minimal_masks(group)
        # Each member lies above a generator of its class and shares its closure.
        closed = tuple(sorted({support_closure(ctx, fam, g) for g in generators}))
        classes.append(EquivalenceClass(extent, tuple(group), generators, closed))
    return classes


def minmax_basis(
    ctx: ObjectContext, fam: PatternFamily, members: Sequence[int]
) -> list[Implication]:
    """Every generator -> closed pairing within a support class, premise != conclusion."""
    basis = []
    for cls in equivalence_classes(ctx, fam, members):
        for p in cls.generators:
            for q in cls.closed:
                if p == q:
                    continue
                kind = "internal" if is_subset(p, q) else "external"
                basis.append(Implication(p, q, kind))
    basis.sort(key=lambda imp: (imp.premise, imp.conclusion))
    return basis


def check_implication(ctx: ObjectContext, fam: PatternFamily, imp: Implication) -> bool:
    """An implication holds when the premise's support is inside the conclusion's."""
    if not (fam.contains(imp.premise) and fam.contains(imp.conclusion)):
        raise ValueError("implication sides must belong to the family")
    return is_subset(extension(ctx, imp.premise), extension(ctx, imp.conclusion))
