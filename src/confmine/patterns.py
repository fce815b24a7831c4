"""Bit-vector patterns over a named item universe.

Patterns (and object extents) are plain Python ints used as bit masks; bit i
stands for the item (or object) with index i.  All set algebra is therefore
``&``, ``|`` and the subset test ``a & ~b == 0``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def iter_indices(mask: int) -> Iterator[int]:
    """Yield set-bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def or_rows(mask: int, rows: Sequence[int]) -> int:
    """OR of ``rows[i]`` over the set bits i of ``mask``: an item set's neighbourhood."""
    acc = 0
    while mask:  # no generator: the miner folds once per emitted concept
        low = mask & -mask
        acc |= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def reach(seed: int, within: int, rows: Sequence[int]) -> int:
    """Bits reachable from ``seed`` inside ``within`` by following ``rows``, by
    breadth-first growth: a connected component, or an element's up set when
    ``rows`` holds each element's parents."""
    comp = seed
    frontier = seed
    while frontier:
        frontier = or_rows(frontier, rows) & within & ~comp
        comp |= frontier
    return comp


def and_rows(mask: int, rows: Sequence[int], acc: int) -> int:
    """AND of ``acc`` and ``rows[i]`` over the set bits i of ``mask``: ``extension``
    over item tidsets and ``intension`` over object descriptions."""
    while mask:  # no generator: the miner folds once per closure
        low = mask & -mask
        acc &= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def minimal_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """The inclusion-minimal masks, sorted by value, each once.

    A mask's strict subsets have smaller values, so in ascending order a mask
    is minimal unless a minimum kept before it lies below it (or equals it).
    Sorted neighbours usually share that minimum, so the last one that
    blocked a mask or was kept is tried before the scan.
    """
    minima: list[int] = []
    last = -1  # every bit set: below no mask
    for m in sorted(masks):
        outside = ~m  # hot loop: is_subset inlined, stopping at the first minimum below m
        if not last & outside:
            continue
        for k in minima:
            if not k & outside:
                last = k
                break
        else:
            minima.append(m)
            last = m
    return tuple(minima)


def content_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number from 1, stripped text) of each line of a text format that
    has content: ``#`` starts a comment and blank lines are skipped."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield lineno, line


class Universe:
    """An ordered set of names mapped to dense bit positions: the items of a
    family and the objects of a context alike."""

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate names in universe")
        # A plain attribute, not a property: closures read it several times each.
        self.full_mask = (1 << len(self.names)) - 1

    @cached_property
    def _bits(self) -> dict[str, int]:
        """Name to bit, built on first use: a context's objects are masked only
        when an abstraction file is read."""
        return {name: 1 << i for i, name in enumerate(self.names)}

    @property
    def size(self) -> int:
        return len(self.names)

    def mask(self, names: Iterable[str]) -> int:
        """Mask of the named members; ``KeyError(z)`` for an unknown name z."""
        bits = self._bits
        m = 0
        for name in names:  # no call or shift per name: context_from_rows masks every object
            m |= bits[name]
        return m

    # List comprehensions, not generator expressions: CPython runs them faster,
    # and the CLI formats every output line with these two methods.
    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple([self.names[i] for i in iter_indices(mask)])

    def format(self, mask: int) -> str:
        """Render a pattern as its item names in index order, ``{}`` if empty."""
        return " ".join([self.names[i] for i in iter_indices(mask)]) or "{}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Universe) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Universe({list(self.names)!r})"
