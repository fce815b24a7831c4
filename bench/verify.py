"""Output verification that shares no code with the program under test.

The model is built from the generator's own ``Instance`` (item adjacency and
object rows as bit masks) and answers membership, support and closedness by
direct scan.  Closedness uses strong accessibility: a family member is closed
exactly when no single-item augmentation inside the family keeps its
(abstract) support.
"""

from __future__ import annotations

import hashlib

from instances import Instance


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Model:
    """Membership, support and closure predicates for one generated instance."""

    def __init__(self, inst: Instance):
        self.names = inst.items
        self.index = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.adj = [0] * n
        if inst.shape.edge_mode:
            incident: dict[int, int] = {}
            for i, (a, b) in enumerate(inst.edges):
                incident[a] = incident.get(a, 0) | 1 << i
                incident[b] = incident.get(b, 0) | 1 << i
            for i, (a, b) in enumerate(inst.edges):
                self.adj[i] = (incident[a] | incident[b]) & ~(1 << i)
        else:
            for a, b in inst.edges:
                self.adj[a] |= 1 << b
                self.adj[b] |= 1 << a
        self.rows = [self.mask(r) for r in inst.rows]
        self._row_bits = [(1 << o, row) for o, row in enumerate(self.rows)]
        self._supports: dict[int, int] = {}
        self.tid = [0] * n
        for o, row in enumerate(self.rows):
            for i in _bits(row):
                self.tid[i] |= 1 << o
        self.objects = {name: o for o, name in enumerate(inst.objects)}
        self.min_size = inst.shape.min_size
        self.threshold = inst.shape.min_support or 0

    def mask(self, names) -> int:
        m = 0
        for name in names:
            m |= 1 << self.index[name]
        return m

    def _neighbours(self, mask: int) -> int:
        acc = 0
        for i in _bits(mask):
            acc |= self.adj[i]
        return acc & ~mask

    def _component(self, seed: int, within: int) -> int:
        """Items of ``within`` reachable from ``seed`` (breadth-first)."""
        comp = frontier = seed
        while frontier:
            frontier = self._neighbours(comp) & within
            comp |= frontier
        return comp

    def connected(self, mask: int) -> bool:
        return bool(mask) and self._component(mask & -mask, mask) == mask

    def member(self, mask: int) -> bool:
        return mask.bit_count() >= self.min_size and self.connected(mask)

    def support(self, mask: int) -> int:
        """Objects whose row contains the pattern, by scanning every row
        (once per pattern: the checks ask for the same supports repeatedly)."""
        ext = self._supports.get(mask)
        if ext is None:
            ext = 0
            for bit, row in self._row_bits:
                if mask & row == mask:
                    ext |= bit
            self._supports[mask] = ext
        return ext

    def abstract(self, ext: int) -> int:
        return ext if ext.bit_count() >= self.threshold else 0

    def is_closed(self, mask: int) -> bool:
        """A member none of whose single-item augmentations keeps the abstract support."""
        if not self.member(mask):
            return False
        plain = self.support(mask)
        target = self.abstract(plain)
        return all(
            self.abstract(plain & self.tid[e]) != target
            for e in _bits(self._neighbours(mask))
        )

    def is_generator(self, mask: int) -> bool:
        """A member none of whose single-item deletions inside the family keeps the support."""
        plain = self.support(mask)
        return self.member(mask) and all(
            not self.member(mask & ~(1 << i)) or self.support(mask & ~(1 << i)) != plain
            for i in _bits(mask)
        )

    def components(self, mask: int) -> list[int]:
        out = []
        while mask:
            out.append(self._component(mask & -mask, mask))
            mask &= ~out[-1]
        return out

    def known_closed(self) -> set[int]:
        """Closed patterns that must be listed: components of single rows and of
        consecutive row pairs, when large enough and frequent enough.

        A component C of an intersection of rows is closed because the closure
        of C lies inside that intersection and stays connected to C.
        """
        found = set()
        rows = self.rows
        candidates = rows + [a & b for a, b in zip(rows, rows[1:])]
        for inter in candidates:
            for comp in self.components(inter):
                if comp.bit_count() >= self.min_size and self.abstract(self.support(comp)):
                    found.add(comp)
        return found

    def descend_to_generator(self, mask: int) -> int:
        """Remove items while membership and support hold: a generator of the class."""
        plain = self.support(mask)
        shrunk = True
        while shrunk:
            shrunk = False
            for i in _bits(mask):
                smaller = mask & ~(1 << i)
                if self.member(smaller) and self.support(smaller) == plain:
                    mask, shrunk = smaller, True
                    break
        return mask


def _items(field: str) -> tuple[str, ...]:
    return () if field == "{}" else tuple(field.split())


def check_mine(model: Model, lines: list[str]) -> list[str]:
    """Problems with ``confmine mine`` TSV output; empty when it is correct."""
    problems = []
    seen = set()
    for n, line in enumerate(lines, 1):
        fields = line.split("\t")
        if len(fields) != 4:
            problems.append(f"line {n}: expected 4 tab-separated fields")
            continue
        try:
            intent = model.mask(_items(fields[0]))
            extent = sum(1 << model.objects[o] for o in _items(fields[1]))
            anchor = model.mask(_items(fields[2]))
        except KeyError as exc:
            problems.append(f"line {n}: unknown name {exc}")
            continue
        if intent in seen:
            problems.append(f"line {n}: duplicate intent")
        seen.add(intent)
        if not model.member(intent):
            problems.append(f"line {n}: intent is not a family member")
            continue
        support = model.abstract(model.support(intent))
        if extent != support:
            problems.append(f"line {n}: extent differs from the abstract support")
        if fields[3] != ("true" if support == 0 else "false"):
            problems.append(f"line {n}: wrong empty-support flag")
        if not model.is_closed(intent):
            problems.append(f"line {n}: an augmentation keeps the support")
        if not (model.member(anchor) and anchor.bit_count() == model.min_size and anchor & ~intent == 0):
            problems.append(f"line {n}: anchor is not a minimal member inside the intent")
    if not lines:
        problems.append("no output")
    missing = model.known_closed() - seen
    if missing:
        problems.append(f"{len(missing)} known closed patterns not listed")
    return problems


def check_basis(model: Model, lines: list[str]) -> list[str]:
    """Problems with ``confmine basis`` output; empty when it is correct."""
    problems = []
    seen = set()
    for n, line in enumerate(lines, 1):
        try:
            sides, kind = line.rsplit(" [", 1)
            left, right = sides.split(" -> ")
            premise, conclusion = model.mask(_items(left)), model.mask(_items(right))
        except (ValueError, KeyError):
            problems.append(f"line {n}: cannot parse {line!r}")
            continue
        if (premise, conclusion) in seen:
            problems.append(f"line {n}: duplicate implication")
        seen.add((premise, conclusion))
        if premise == conclusion or not (model.member(premise) and model.member(conclusion)):
            problems.append(f"line {n}: sides must be distinct family members")
            continue
        if model.support(premise) != model.support(conclusion):
            problems.append(f"line {n}: premise and conclusion supports differ")
        if not model.is_closed(conclusion):
            problems.append(f"line {n}: conclusion is not closed")
        if not model.is_generator(premise):
            problems.append(f"line {n}: premise is not a generator")
        expected = "internal]" if premise & ~conclusion == 0 else "external]"
        if kind != expected:
            problems.append(f"line {n}: kind should be {expected[:-1]}")
    for closed in model.known_closed():
        generator = model.descend_to_generator(closed)
        if generator != closed and (generator, closed) not in seen:
            problems.append("a known generator -> closed implication is missing")
            break
    return problems


class Digest:
    """Order-insensitive digest of output lines: line count and a sum of line hashes."""

    def __init__(self):
        self.count = 0
        self.total = 0

    def add(self, line: str) -> None:
        self.count += 1
        self.total += int.from_bytes(hashlib.sha256(line.encode()).digest()[:16], "big")

    def hexdigest(self) -> str:
        return f"{self.count}:{self.total % (1 << 128):032x}"


def digest(lines) -> str:
    acc = Digest()
    for line in lines:
        acc.add(line)
    return acc.hexdigest()
