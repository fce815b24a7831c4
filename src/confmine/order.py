"""Explicit finite posets and lattices with closure/interior operator machinery.

Element order relations are stored as precomputed reachability bit masks, so
``leq`` queries are O(1).  Everything here is meant for desk-scale structures
(up to a few thousand elements); large pattern families never materialize
through this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from .patterns import content_lines, iter_indices, mask_of


class PosetError(ValueError):
    """Raised when an order relation fails reflexivity/antisymmetry/transitivity."""


class LatticeError(ValueError):
    """Raised when a poset lacks the meets/joins/bounds required of a lattice."""


@dataclass(frozen=True)
class Verdict:
    """A boolean answer together with the witness of the first violation found."""

    ok: bool
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


class FinitePoset:
    """A finite partial order over opaque element ids.

    ``up[i]`` is the bit mask of element indices j with i <= j (the principal
    up set of i); ``down[i]`` is the dual.  The relation is validated on
    construction.
    """

    def __init__(self, ids: Sequence[Hashable], up: Sequence[int], _validate: bool = True):
        self.ids = tuple(ids)
        self.up = tuple(up)
        n = len(self.ids)
        if len(set(self.ids)) != n:
            raise PosetError("duplicate element ids")
        if len(self.up) != n:
            raise PosetError("up-set table size does not match element count")
        full = (1 << n) - 1
        down = [0] * n
        for i, mask in enumerate(self.up):
            if mask & ~full:
                raise PosetError("up-set mask references out-of-range element")
            for j in iter_indices(mask):
                down[j] |= 1 << i
        self.down = tuple(down)
        self._index = {e: i for i, e in enumerate(self.ids)}
        self._dual: FinitePoset | None = None
        if _validate:
            self._validate()

    def _validate(self) -> None:
        for i in range(len(self.ids)):
            if not (self.up[i] >> i) & 1:
                raise PosetError(f"relation not reflexive at {self.ids[i]!r}")
        for i in range(len(self.ids)):
            for j in iter_indices(self.up[i]):
                if j != i and (self.up[j] >> i) & 1:
                    raise PosetError(
                        f"relation not antisymmetric on ({self.ids[i]!r}, {self.ids[j]!r})"
                    )
                if self.up[j] & ~self.up[i]:
                    raise PosetError(
                        f"relation not transitive through ({self.ids[i]!r}, {self.ids[j]!r})"
                    )

    @classmethod
    def from_covers(cls, ids: Sequence[Hashable], covers: dict[Hashable, Iterable[Hashable]]) -> "FinitePoset":
        """Build from a cover relation: ``covers[x]`` lists elements directly below x.

        The reflexive-transitive closure is computed here; cycles surface as
        antisymmetry violations, and an id outside ``ids`` as a PosetError.
        """
        ids = tuple(ids)
        index = {e: i for i, e in enumerate(ids)}
        up = [1 << i for i in range(len(ids))]
        parents_of: list[list[int]] = [[] for _ in ids]  # direct successors of each element
        for parent, below in covers.items():
            if parent not in index:
                raise PosetError(f"unknown element {parent!r}")
            for child in below:
                if child not in index:
                    raise PosetError(f"element {parent!r} covers unknown element {child!r}")
                parents_of[index[child]].append(index[parent])
        changed = True
        while changed:
            changed = False
            for i in range(len(ids)):
                mask = up[i]
                for p in parents_of[i]:
                    mask |= up[p]
                if mask != up[i]:
                    up[i] = mask
                    changed = True
        return cls(ids, up)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.ids)) - 1

    def index(self, element: Hashable) -> int:
        return self._index[element]

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def minimal_mask(self) -> int:
        return mask_of(i for i in range(self.n) if self.down[i] == 1 << i)

    def restrict(self, member_mask: int) -> tuple["FinitePoset", list[int]]:
        """Induced subposet on the elements of ``member_mask``.

        Returns the subposet plus the list mapping new indices to old ones.
        """
        old = list(iter_indices(member_mask))
        pos = {o: k for k, o in enumerate(old)}
        up = [mask_of(pos[j] for j in iter_indices(self.up[o] & member_mask)) for o in old]
        return FinitePoset([self.ids[o] for o in old], up, _validate=False), old

    def dual(self) -> "FinitePoset":
        """The opposite order on the same ids: each down set becomes an up set.

        Built once, on first use, sharing this poset's tables; its dual is
        this poset.
        """
        if self._dual is None:
            d = object.__new__(FinitePoset)
            d.ids, d.up, d.down, d._index = self.ids, self.down, self.up, self._index
            d._dual = self
            self._dual = d
        return self._dual

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, FinitePoset) and self.ids == other.ids and self.up == other.up
        )

    def __hash__(self) -> int:
        return hash((self.ids, self.up))

    def __repr__(self) -> str:
        return f"FinitePoset(n={self.n})"


class FiniteLattice:
    """A finite lattice, built from its order alone.

    A down set S has a greatest element g exactly when ``S == down[g]``
    (dually for up sets), so instead of n x n tables the lattice keeps the two
    lookups ``{down[g]: g}`` and ``{up[g]: g}``: the top, the bottom and each
    meet and join is one lookup.  Construction raises :class:`LatticeError` at
    the first missing bound: top, bottom, then each pair's meet and join in
    index order.
    """

    def __init__(self, poset: FinitePoset):
        n, down, up = poset.n, poset.down, poset.up
        below = {d: g for g, d in enumerate(down)}
        above = {u: g for g, u in enumerate(up)}
        top = below.get(poset.full_mask)
        bottom = above.get(poset.full_mask)
        if top is None:
            raise LatticeError("poset has no top element")
        if bottom is None:
            raise LatticeError("poset has no bottom element")
        for i in range(n):
            for j in range(i, n):
                if down[i] & down[j] not in below:
                    raise LatticeError(f"pair ({poset.ids[i]!r}, {poset.ids[j]!r}) has no meet")
                if up[i] & up[j] not in above:
                    raise LatticeError(f"pair ({poset.ids[i]!r}, {poset.ids[j]!r}) has no join")
        self.poset = poset
        self._below, self._above = below, above
        self.top, self.bottom = top, bottom
        self._dual: FiniteLattice | None = None

    @property
    def n(self) -> int:
        return self.poset.n

    def meet(self, i: int, j: int) -> int:
        down = self.poset.down
        return self._below[down[i] & down[j]]

    def join(self, i: int, j: int) -> int:
        up = self.poset.up
        return self._above[up[i] & up[j]]

    def dual(self) -> "FiniteLattice":
        """The opposite lattice: meets and joins, top and bottom trade places.

        Built once, on first use, sharing this lattice's lookups; its dual is
        this lattice.
        """
        if self._dual is None:
            d = object.__new__(FiniteLattice)
            d.poset = self.poset.dual()
            d._below, d._above = self._above, self._below
            d.top, d.bottom = self.bottom, self.top
            d._dual = self
            self._dual = d
        return self._dual

    def __repr__(self) -> str:
        return f"FiniteLattice(n={self.n})"


def powerset_lattice(n_items: int) -> FiniteLattice:
    """The lattice 2^S for a universe of ``n_items`` items, 0 to 10.

    Element ids (and indices) are the subset masks themselves, so the meet of
    two elements is their AND and the join their OR.  Materialization is
    exponential; callers keep n_items at desk scale.
    """
    if not 0 <= n_items <= 10:
        raise LatticeError("materialized powerset takes 0 to 10 items")
    size = 1 << n_items
    full_items = size - 1
    up = []
    for x in range(size):
        comp = full_items & ~x
        mask = 0
        s = 0
        while True:
            mask |= 1 << (x | s)
            if s == comp:
                break
            s = (s - comp) & comp
        up.append(mask)
    return FiniteLattice(FinitePoset(list(range(size)), up, _validate=False))


class OperatorMap:
    """A total self-map on a finite poset, stored as an index table."""

    def __init__(self, domain: FinitePoset, table: Sequence[int]):
        self.domain = domain
        self.table = tuple(table)
        if len(self.table) != domain.n:
            raise ValueError("operator table size does not match poset")
        for v in self.table:
            if not 0 <= v < domain.n:
                raise ValueError("operator image outside poset")

    @classmethod
    def identity(cls, domain: FinitePoset) -> "OperatorMap":
        return cls(domain, range(domain.n))

    def apply(self, i: int) -> int:
        return self.table[i]

    def range_mask(self) -> int:
        return mask_of(self.table)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OperatorMap)
            and self.domain == other.domain
            and self.table == other.table
        )

    def __repr__(self) -> str:
        return f"OperatorMap(n={self.domain.n})"


@dataclass(frozen=True)
class OperatorClassification:
    """Outcome of the three-law check: monotone, idempotent, extensive/intensive.

    ``kind`` is "closure", "interior" or "neither"; the identity map reports
    "closure" (it satisfies both).  ``failed_law``/``witness`` describe the
    first violation in a fixed scan order, for reproducible test failures.
    """

    kind: str
    is_closure: bool
    is_interior: bool
    failed_law: str | None = None
    witness: object = None


def classify_operator(m: OperatorMap) -> OperatorClassification:
    """Classify a self-map as closure, interior, or neither, with a witness."""
    p = m.domain
    mono_w = None
    for i in range(p.n):
        for j in iter_indices(p.up[i]):
            if not p.leq(m.table[i], m.table[j]):
                mono_w = (p.ids[i], p.ids[j])
                break
        if mono_w:
            break
    if mono_w:
        return OperatorClassification("neither", False, False, "monotone", mono_w)
    for i in range(p.n):
        if m.table[m.table[i]] != m.table[i]:
            return OperatorClassification("neither", False, False, "idempotent", p.ids[i])
    ext_w = next((p.ids[i] for i in range(p.n) if not p.leq(i, m.table[i])), None)
    int_w = next((p.ids[i] for i in range(p.n) if not p.leq(m.table[i], i)), None)
    if ext_w is None:
        return OperatorClassification("closure", True, int_w is None)
    if int_w is None:
        return OperatorClassification("interior", False, True)
    return OperatorClassification("neither", False, False, "extensive", ext_w)


def closure_from_subset(
    poset: FinitePoset, members: int
) -> tuple[OperatorMap | None, Hashable | None]:
    """Build the closure whose range is ``members``, or report a counterexample.

    Succeeds iff for every element x the members above x have a least one;
    the returned witness is the first x (index order) for which they do not.
    That least member is the g with ``members & up[x] == members & up[g]``,
    so each element is one lookup.
    """
    least = {members & poset.up[g]: g for g in iter_indices(members)}
    table = []
    for x in range(poset.n):
        g = least.get(members & poset.up[x])
        if g is None:
            return None, poset.ids[x]
        table.append(g)
    return OperatorMap(poset, table), None


def interior_from_subset(
    poset: FinitePoset, members: int
) -> tuple[OperatorMap | None, Hashable | None]:
    """Dual of :func:`closure_from_subset`: members below x need a greatest one."""
    op, witness = closure_from_subset(poset.dual(), members)
    return (None, witness) if op is None else (OperatorMap(poset, op.table), None)


def meet_closed(ids: Sequence[Hashable], members: int, top: int, meet: Callable) -> Verdict:
    """Does ``members`` hold ``top`` and the ``meet`` of each two of its elements?
    The witness is the missing top or the first offending pair in index order."""
    if not (members >> top) & 1:
        return Verdict(False, ids[top])
    elems = list(iter_indices(members))
    for a, i in enumerate(elems):
        for j in elems[a + 1 :]:
            if not (members >> meet(i, j)) & 1:
                return Verdict(False, (ids[i], ids[j]))
    return Verdict(True)


def is_meet_closed(lattice: FiniteLattice, members: int) -> Verdict:
    """Is ``members`` closed under all meets (the empty meet being top)?  By
    finiteness that is top membership plus closure under pairwise meets."""
    return meet_closed(lattice.poset.ids, members, lattice.top, lattice.meet)


def is_join_closed(lattice: FiniteLattice, members: int) -> Verdict:
    """Dual of :func:`is_meet_closed`: the empty join is bottom."""
    return is_meet_closed(lattice.dual(), members)


def load_poset(lines: Iterable[str]) -> FinitePoset:
    """Parse the poset text format: one element per line, ``id: covers id1 id2 ...``.

    The listed ids are the elements covered by (directly below) the line's id;
    the transitive closure is computed on load.
    """
    ids: list[str] = []
    covers: dict[str, list[str]] = {}
    for lineno, line in content_lines(lines):
        if ":" not in line:
            raise PosetError(f"line {lineno}: expected 'id: covers ...'")
        name, rest = line.split(":", 1)
        name = name.strip()
        tokens = rest.split()
        if not tokens or tokens[0] != "covers":
            raise PosetError(f"line {lineno}: expected the keyword 'covers'")
        if not name:
            raise PosetError(f"line {lineno}: empty element id")
        if name in covers:
            raise PosetError(f"line {lineno}: duplicate element {name!r}")
        ids.append(name)
        covers[name] = tokens[1:]
    return FinitePoset.from_covers(ids, covers)
