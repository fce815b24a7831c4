"""Support-equivalence classes and the min-max implication basis.

Family members with the same support set form an equivalence class; its
minimal members are the generators and its support-closed members the class
representatives.  The supports come from prefix-shared tidset ANDs
(``fca.extensions``), about one AND per member when the members arrive
sorted by mask; any order gives the same classes.  A class's closed members
are projected from the class extent, which its generators share.  The basis
pairs every generator with every closed member of its class: internal
implications go up the order, external ones connect incomparable members
anchored at different minimals.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .families import PatternFamily
from .fca import ObjectContext, closure, extensions
from .patterns import is_subset, minimal_masks


class Implication(NamedTuple):
    """premise -> conclusion between two members of one support class; a named
    tuple, like the miner's events, since the basis builds one per pair."""

    premise: int
    conclusion: int
    kind: str  # "internal" | "external"


class EquivalenceClass(NamedTuple):
    """All family members sharing one support set."""

    extent: int
    members: tuple[int, ...]
    generators: tuple[int, ...]
    closed: tuple[int, ...]


def equivalence_classes(
    ctx: ObjectContext, fam: PatternFamily, members: Sequence[int]
) -> list[EquivalenceClass]:
    """Group the materialized family by support set.

    ``members`` must all belong to ``fam``, as ``oracle.materialize`` lists
    them: generators are closed without a membership test.  They may come in
    any order; the supports are computed with prefix-shared tidset ANDs, which
    share the most when the members are sorted by mask, as ``materialize``
    returns them.  Generators are the subset-minimal members of each class.
    Closed members are the support-closure fixpoints: each member lies above a
    generator of its class and shares its closure, and a generator's closure
    is projected from the class extent, its plain support, so no support is
    computed again and no abstraction is applied.  Beside the classes it
    holds one reference per member, in a list per support set that is sorted
    in place and dropped once its class is made; ``members`` is not changed.
    """
    by_extent: dict[int, list[int]] = {}
    for t, extent in zip(members, extensions(ctx, members)):
        by_extent.setdefault(extent, []).append(t)
    classes = []
    for extent in sorted(by_extent):
        group = by_extent.pop(extent)
        group.sort()
        generators = minimal_masks(group)
        closed = {closure(ctx, fam, g, extent, checked=False) for g in generators}
        classes.append(EquivalenceClass(extent, tuple(group), generators, tuple(sorted(closed))))
    return classes


def minmax_basis(
    ctx: ObjectContext, fam: PatternFamily, members: Sequence[int]
) -> list[Implication]:
    """Every generator -> closed pairing within a support class, premise !=
    conclusion, sorted; ``members`` as for ``equivalence_classes``."""
    basis = []
    classes = equivalence_classes(ctx, fam, members)
    while classes:
        cls = classes.pop()  # dropped once listed: the basis is sorted at the end
        for p in cls.generators:
            for q in cls.closed:
                if p == q:
                    continue
                kind = "internal" if is_subset(p, q) else "external"
                basis.append(Implication(p, q, kind))
    basis.sort()  # by (premise, conclusion): no pair occurs twice
    return basis
