"""Bit-vector patterns over a named item universe.

Patterns (and object extents) are plain Python ints used as bit masks; bit i
stands for the item (or object) with index i.  All set algebra is therefore
``&``, ``|`` and the subset test ``a & ~b == 0``.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def bit(i: int) -> int:
    return 1 << i


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


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def minimal_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """The inclusion-minimal masks, sorted by value, each once.

    A mask's strict subsets have smaller values, so in ascending order a mask
    is minimal unless a minimum kept before it lies below it (or equals it).
    """
    minima: list[int] = []
    for m in sorted(masks):
        if all(k & ~m for k in minima):
            minima.append(m)
    return tuple(minima)


class Universe:
    """An ordered set of item names mapped to dense bit positions."""

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate item names in universe")
        self._index = {name: i for i, name in enumerate(self.names)}

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.names)) - 1

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown item {name!r}") from None

    def mask(self, names: Iterable[str]) -> int:
        return mask_of(self.index(n) for n in names)

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.names[i] for i in iter_indices(mask))

    def format(self, mask: int) -> str:
        """Render a pattern as its item names in index order, ``{}`` if empty."""
        return " ".join(self.names_of(mask)) or "{}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Universe) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Universe({list(self.names)!r})"
