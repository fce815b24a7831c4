"""Implicit pattern families: connected subgraph families, bounded-gap words,
and explicit desk-scale families, all behind one behavioral contract.

Membership, minimal elements, single-item augmentations and interior
projections are answered directly, without listing the family.  Listing
every member (``members``, which ``oracle.materialize`` reads under a budget)
is exponential in graph size for the connected families; they list it by one
exactly-once walk over the adjacency table (ESU, Wernicke 2006) that also
finds their minimals.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .order import Verdict
from .patterns import Universe, content_lines, is_subset, iter_indices, mask_of, minimal_masks, or_rows, reach


class FamilyError(ValueError):
    """Invalid family construction (bad graph, empty family, ...)."""


class NotSubconfluenceError(ValueError):
    """A family that is not a subconfluence: ``witness`` is a triple (t, x, y)
    of member masks, x and y above t, whose union is no member."""

    def __init__(self, witness: tuple[int, int, int], universe: Universe):
        t, x, y = witness
        super().__init__(
            "not a subconfluence: "
            f"({universe.format(t)}, {universe.format(x)}, {universe.format(y)}) "
            f"share a member below but their union {universe.format(x | y)} is missing"
        )
        self.witness = witness


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class GraphSpec:
    """An undirected graph with named vertices and optionally labeled edges.

    Edge labels may repeat: they are items only in edge mode, where
    ``ConnectedEdgeFamily`` rejects a repeated one.  ``build`` labels an
    unlabelled edge ``a-b``, so two such edges between the same vertices, or
    between vertices whose names contain ``-``, can share a label.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    edge_labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise FamilyError("duplicate vertex names")
        if len(self.edges) != len(self.edge_labels):
            raise FamilyError("edge label count does not match edge count")
        n = len(self.vertices)
        for a, b in self.edges:
            if a == b:
                raise FamilyError("self-loops are not allowed")
            if not (0 <= a < n and 0 <= b < n):
                raise FamilyError("edge endpoint out of range")

    @classmethod
    def build(
        cls,
        vertices: Sequence[str],
        edges: Iterable[tuple[str, str] | tuple[str, str, str]],
    ) -> "GraphSpec":
        index = {v: i for i, v in enumerate(vertices)}
        pairs: list[tuple[int, int]] = []
        labels: list[str] = []
        for e in edges:
            a, b = e[0], e[1]
            if a not in index or b not in index:
                raise FamilyError(f"edge ({a!r}, {b!r}) references unknown vertex")
            pairs.append((index[a], index[b]))
            labels.append(e[2] if len(e) == 3 else f"{a}-{b}")
        return cls(tuple(vertices), tuple(pairs), tuple(labels))

    def vertex_adjacency(self) -> list[int]:
        """adj[v] = bit mask of neighbors of vertex v."""
        adj = [0] * len(self.vertices)
        for a, b in self.edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return adj

    def edge_adjacency(self) -> list[int]:
        """adj[e] = bit mask of edges sharing an endpoint with edge e."""
        incident = [0] * len(self.vertices)
        for i, (a, b) in enumerate(self.edges):
            incident[a] |= 1 << i
            incident[b] |= 1 << i
        return [
            (incident[a] | incident[b]) & ~(1 << i) for i, (a, b) in enumerate(self.edges)
        ]


class PatternFamily(ABC):
    """Behavioral contract shared by every pattern family.

    A family is a subconfluence of the powerset of its universe: whenever two
    members contain a common member, their union is a member.  Implementations
    are stateless after construction and safe to query concurrently, and set
    ``_minimals`` when they are built.
    """

    universe: Universe
    _minimals: tuple[int, ...]

    @abstractmethod
    def contains(self, pattern: int) -> bool:
        """Membership of a pattern (a bit mask over the universe)."""

    def minimals(self) -> tuple[int, ...]:
        """Minimal members, sorted by bit-mask value for deterministic mining."""
        return self._minimals

    @cached_property
    def minimals_by_top(self) -> tuple[tuple[int, ...], ...]:
        """The minimals grouped by ``bit_length``, each group in mask order: group
        i + 1 holds those whose highest item is i, and group 0 the empty pattern
        when it is a member (then the only minimal).  ``fca.anchor_minimal`` reads
        it; derived on first use and kept.

        ``bit_length`` does not decrease along the sorted minimals, so group b
        is the slice of them from the end of group b - 1 up to ``1 << b``.
        """
        mins = self.minimals()
        groups = []
        lo = 0
        for b in range(self.universe.size + 1):
            hi = bisect_left(mins, 1 << b, lo)
            groups.append(mins[lo:hi])
            lo = hi
        return tuple(groups)

    def project(self, member: int, x: int, *, checked: bool = True) -> int:
        """Greatest family member below x containing ``member``.  Checks the contract
        (a member base, x above it, a result above it) around the family's ``_project``;
        ``checked=False`` skips the two argument checks (the membership test is a
        breadth-first search on the graph families), for arguments valid by
        construction.  The result check always runs."""
        if checked:
            if not self.contains(member):
                raise ValueError("projection base must belong to the family")
            if not is_subset(member, x):
                raise ValueError("projection argument must contain the base")
        result = self._project(member, x)
        if member & ~result:  # is_subset inlined: the miner projects once per closure
            raise ValueError("family projection is not extensive; the family violates its contract")
        return result

    @abstractmethod
    def _project(self, member: int, x: int) -> int:
        """``project`` once its arguments have passed the contract checks."""

    def augmentations(self, pattern: int) -> list[int]:
        """Item indices e such that pattern + e stays in the family.

        ``pattern`` must be a member; this default scans membership per item.
        """
        return [
            e
            for e in range(self.universe.size)
            if not (pattern >> e) & 1 and self.contains(pattern | 1 << e)
        ]

    @abstractmethod
    def members(self) -> Iterator[int]:
        """Every member exactly once, in no fixed order."""

    def strongly_accessible(self) -> Verdict:
        """``is_strongly_accessible`` over every member; implicit families hold it
        by construction (a connected set strictly inside another has an item of
        the other adjacent to it), so only explicit ones compute it."""
        return Verdict(True)


def _connected_sets(
    adjacency: Sequence[int], min_size: int, max_size: int | None = None
) -> Iterator[int]:
    """Every connected item set of ``min_size`` to ``max_size`` items (no upper
    bound when ``max_size`` is None), each exactly once, in no fixed order.

    This is ESU (Wernicke 2006).  The sets whose least item is v grow from
    {v} on an explicit stack of frames (set, size, candidate mask, closed
    neighbourhood: the set and every item adjacent to it).  Taking a
    candidate w out of a frame's mask pushes the set plus w, whose candidates
    are the rest of the mask plus w's neighbours above v outside the closed
    neighbourhood.  Every set below that child contains w and no set below
    the frame's later children does (w lies in the closed neighbourhood, so
    it never becomes a candidate there again): no set is reached twice.  And
    every connected set T whose least item is v is reached: from a frame whose
    set lies inside T and whose mask holds every item of T adjacent to that
    set, the child taking the least such candidate is again such a frame, one
    item closer to T.  A child at the size limit, or with no candidate, has
    no set below it: no frame is pushed for it, and it is yielded at once if
    it has ``min_size`` items; at a limit of one item no root is pushed
    either.
    """
    limit = len(adjacency) if max_size is None else max_size
    if limit < min_size:
        return
    if limit == 1:  # every root is a leaf
        yield from (1 << v for v in range(len(adjacency)))
        return
    for v in range(len(adjacency)):
        above = -(2 << v)  # every item greater than v
        stack = [(1 << v, 1, adjacency[v] & above, 1 << v | adjacency[v])]
        while stack:
            s, size, candidates, closed = stack.pop()
            if size >= min_size:
                yield s
            size += 1  # the children's size; no frame is pushed at the limit
            if size == limit:  # every child is a leaf: yield it, push no frame
                while candidates:
                    w = candidates & -candidates
                    candidates ^= w
                    yield s | w
                continue
            while candidates:
                w = candidates & -candidates
                candidates ^= w
                adj = adjacency[w.bit_length() - 1]
                grown = candidates | (adj & above & ~closed)
                if grown:
                    stack.append((s | w, size, grown, closed | adj))
                elif size >= min_size:  # a child with no candidate is a leaf
                    yield s | w


class ConnectedFamily(PatternFamily):
    """Item sets connected under an adjacency table, with at least ``min_size`` (>= 1) items.

    Connected vertex sets use the graph's vertex adjacency; connected edge sets
    are the connected vertex sets of the line graph.
    """

    def __init__(self, universe: Universe, adjacency: Sequence[int], min_size: int = 1):
        self.universe = universe
        self.min_size = min_size
        self._adj = adjacency
        self._minimals = tuple(sorted(_connected_sets(adjacency, min_size, min_size)))

    def contains(self, pattern: int) -> bool:
        if pattern & ~self.universe.full_mask or pattern.bit_count() < self.min_size:
            return False
        return reach(pattern & -pattern, pattern, self._adj) == pattern

    def members(self) -> Iterator[int]:
        return _connected_sets(self._adj, self.min_size)

    def augmentations(self, pattern: int) -> list[int]:
        # Exactly the items adjacent to a member: adding one keeps it connected
        # (and above the size bound), adding any other disconnects it.
        return list(iter_indices(or_rows(pattern, self._adj) & ~pattern))

    @cached_property
    def _components(self) -> tuple[int, ...]:
        """Component of each item under the whole adjacency.

        A member's component is its local top.  Derived on first use and kept;
        the family stays immutable in effect.
        """
        comps = [0] * self.universe.size
        for v in range(self.universe.size):
            if not comps[v]:
                comp = reach(1 << v, self.universe.full_mask, self._adj)
                for w in iter_indices(comp):
                    comps[w] = comp
        return tuple(comps)

    def _project(self, member: int, x: int) -> int:
        # A member is connected, so its component within x is the whole
        # component of any one of its items whenever x covers that component.
        top = self._components[(member & -member).bit_length() - 1]
        if not top & ~x:
            return top
        return reach(member, x, self._adj)


class ConnectedVertexFamily(ConnectedFamily):
    """Vertex subsets inducing a connected subgraph, with a minimum size."""

    def __init__(self, graph: GraphSpec, min_size: int = 1):
        if min_size < 1:
            raise FamilyError("min_size must be at least 1")
        if min_size > len(graph.vertices):
            raise FamilyError("min_size exceeds the vertex count: empty family")
        self.graph = graph
        super().__init__(Universe(graph.vertices), graph.vertex_adjacency(), min_size)
        if not self._minimals:
            raise FamilyError(
                f"no connected vertex set of size {min_size}: empty family"
            )


class ConnectedEdgeFamily(ConnectedFamily):
    """Nonempty edge subsets spanning a connected subgraph; items are edges."""

    def __init__(self, graph: GraphSpec):
        if not graph.edges:
            raise FamilyError("graph has no edges: empty family")
        labels = graph.edge_labels
        if len(set(labels)) != len(labels):  # before Universe, whose ValueError names none
            repeated = [label for label, n in Counter(labels).items() if n > 1]
            raise FamilyError(f"duplicate edge labels: {' '.join(repeated)}")
        self.graph = graph
        super().__init__(Universe(labels), graph.edge_adjacency())


class KGapWordFamily(ConnectedFamily):
    """Position subsets whose consecutive chosen positions differ by at most k.

    Positions 1..n are the items ``a1..an``, each adjacent to every other
    position within distance k; gap-1 patterns are contiguous words.
    """

    def __init__(self, n: int, k: int = 1):
        if n < 1:
            raise FamilyError("sequence length must be at least 1")
        if k < 1:
            raise FamilyError("gap bound must be at least 1")
        adjacency = [
            ((2 << min(i + k, n - 1)) - (1 << max(i - k, 0))) & ~(1 << i) for i in range(n)
        ]
        super().__init__(Universe(tuple(f"a{i}" for i in range(1, n + 1))), adjacency)


class ExplicitFamily(PatternFamily):
    """A family given by an explicit pattern list, verified as a subconfluence."""

    def __init__(self, patterns: Iterable[int], universe: Universe):
        members = sorted(set(patterns))
        if not members:
            raise FamilyError("explicit family must be nonempty")
        self.universe = universe
        for p in members:
            if p & ~universe.full_mask:
                raise FamilyError("pattern uses items outside the universe")
        witness = subconfluence_violation(members)
        if witness is not None:
            raise NotSubconfluenceError(witness, universe)
        self.patterns = tuple(members)
        self._set = frozenset(members)
        self._minimals = minimal_masks(self.patterns)

    def contains(self, pattern: int) -> bool:
        return pattern in self._set

    def members(self) -> Iterator[int]:
        return iter(self.patterns)

    def strongly_accessible(self) -> Verdict:
        return is_strongly_accessible(self.patterns)

    def _project(self, member: int, x: int) -> int:
        best = member
        for q in self.patterns:
            if is_subset(member, q) and is_subset(q, x):
                best |= q
        assert best in self._set  # union of members above a common one stays inside
        return best


def subconfluence_violation(members: Sequence[int]) -> tuple[int, int, int] | None:
    """First triple (t, x, y) with x, y above t whose union escapes, else None.

    Only minimal t are tried: a triple at t is also one at each minimal below
    t, whose mask is smaller, so the first t in mask order is always minimal.
    """
    member_set = set(members)
    ordered = sorted(member_set)
    for t in minimal_masks(ordered):
        above = [x for x in ordered if is_subset(t, x)]
        for a, x in enumerate(above):
            for y in above[a + 1 :]:
                if x | y not in member_set:
                    return (t, x, y)
    return None


def is_strongly_accessible(members: Sequence[int]) -> Verdict:
    """Does every nested member pair t1 < t2 have an e in t2 - t1 with t1 + e a member?

    This one-step form is equivalent to linking every such pair by single-item
    steps inside the family.  The witness is the first failing pair (t1, t2) in
    (size, mask) order.  ``members`` is the full family at desk scale
    (materialize implicit families first).  Each member's one-item steps are
    found once, as the mask of items e with t1 + e a member, so a pair costs
    one AND and no membership test; the loop is quadratic in the members.
    """
    member_set = set(members)
    ordered = sorted(member_set, key=lambda p: (p.bit_count(), p))
    width = max(member_set, default=0).bit_length()
    for k, t1 in enumerate(ordered):  # members above t1 come later
        steps = mask_of(e for e in range(width) if t1 | 1 << e in member_set) & ~t1
        for t2 in ordered[k + 1 :]:
            if not t1 & ~t2 and not t2 & steps:  # t2 is above t1 and holds none of its steps
                return Verdict(False, (t1, t2))
    return Verdict(True)


def load_graph(lines: Iterable[str]) -> GraphSpec:
    """Parse the graph format: ``v <name>`` and ``e <name1> <name2> [label]``
    lines.  No vertex or label is ``{}``, which prints an empty pattern."""
    vertices: list[str] = []
    edges: list[tuple[str, str] | tuple[str, str, str]] = []
    for lineno, line in content_lines(lines):
        tokens = line.split()
        if tokens[0] == "v" and len(tokens) == 2:
            vertices.append(tokens[1])
        elif tokens[0] == "e" and len(tokens) in (3, 4):
            edges.append(tuple(tokens[1:]))  # type: ignore[arg-type]
        else:
            raise ParseError(lineno, f"expected 'v <name>' or 'e <a> <b> [label]', got {line!r}")
        if tokens[-1] == "{}":  # a vertex, a label, or an endpoint no 'v' line can name
            raise ParseError(lineno, "'{}' cannot name a vertex or an edge label")
    try:
        return GraphSpec.build(vertices, edges)
    except FamilyError as exc:
        raise FamilyError(f"invalid graph: {exc}") from exc


def load_family_lines(lines: Iterable[str]) -> list[tuple[str, ...]]:
    """Parse a family file into item-name tuples (one pattern per line); the
    literal ``{}``, alone on its line, denotes the empty pattern."""
    patterns = []
    for lineno, line in content_lines(lines):
        items = () if line == "{}" else tuple(line.split())
        if "{}" in items:
            raise ParseError(lineno, "'{}' must appear alone on its line")
        patterns.append(items)
    return patterns


def explicit_family_from_names(
    patterns: Iterable[Iterable[str]], extra_items: Iterable[str] = ()
) -> ExplicitFamily:
    """Build an explicit family, inferring the universe from the patterns.

    Items are indexed in first-appearance order; ``extra_items`` (e.g. items
    seen only in a context file) extend the universe after the family's own.
    """
    pattern_lists = [tuple(p) for p in patterns]
    universe = Universe(dict.fromkeys(chain(chain.from_iterable(pattern_lists), extra_items)))
    return ExplicitFamily([universe.mask(p) for p in pattern_lists], universe)
