"""Greatest and least elements, checked against their definition.

The library reads the bound of a principal-set intersection off the up and
down tables by lookup.  The reference here is the definition, scanned with
``leq`` alone: the greatest element of S is the one every element of S lies
below.  Every routine that reads bounds must agree with it, verdicts,
witnesses, tables and error messages included.
"""

import contextlib
import random

import pytest

import confmine.confluence
import confmine.order
from confmine.confluence import (
    ExplicitConfluence,
    NotLocallyMeetClosedError,
    closure_from_local_meet_subset,
    is_closed_under_local_meet,
    is_confluence,
)
from confmine.oracle import family_poset
from confmine.order import (
    FiniteLattice,
    FinitePoset,
    LatticeError,
    closure_from_subset,
    powerset_lattice,
)
from confmine.patterns import iter_indices, mask_of

from randomized import random_explicit_subconfluence, random_lattice, random_subset


def greatest(poset, s):
    """The element of s that every element of s lies below, or None."""
    return next(
        (g for g in iter_indices(s) if all(poset.leq(x, g) for x in iter_indices(s))), None
    )


def least(poset, s):
    """The element of s that lies below every element of s, or None."""
    return next(
        (g for g in iter_indices(s) if all(poset.leq(g, x) for x in iter_indices(s))), None
    )


def between(poset, lo=(), hi=()):
    """The elements above every index in ``lo`` and below every index in ``hi``."""
    return mask_of(
        z
        for z in range(poset.n)
        if all(poset.leq(a, z) for a in lo) and all(poset.leq(z, b) for b in hi)
    )


def reference_is_confluence(poset):
    ids = poset.ids
    minimals = [m for m in range(poset.n) if between(poset, hi=[m]) == 1 << m]
    for m in minimals:
        up = between(poset, lo=[m])
        if greatest(poset, up) is None:
            return False, (ids[m], None)
        elems = list(iter_indices(up))
        for a, x in enumerate(elems):
            for y in elems[a + 1 :]:
                if greatest(poset, between(poset, lo=[m], hi=[x, y])) is None:
                    return False, (ids[m], (ids[x], ids[y]))
    return True, None


def reference_lattice(poset):
    """``(meet, join, top, bottom)``, or the LatticeError message FiniteLattice gives."""
    n, ids = poset.n, poset.ids
    top = greatest(poset, poset.full_mask)
    bottom = least(poset, poset.full_mask)
    if top is None:
        return "poset has no top element"
    if bottom is None:
        return "poset has no bottom element"
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g = greatest(poset, between(poset, hi=[i, j]))
            if g is None:
                return f"pair ({ids[i]!r}, {ids[j]!r}) has no meet"
            meet[i][j] = meet[j][i] = g
            g = least(poset, between(poset, lo=[i, j]))
            if g is None:
                return f"pair ({ids[i]!r}, {ids[j]!r}) has no join"
            join[i][j] = join[j][i] = g
    return meet, join, top, bottom


def reference_closure_table(poset, members):
    """The least member above each element, or the first element without one."""
    table = []
    for x in range(poset.n):
        g = least(poset, members & between(poset, lo=[x]))
        if g is None:
            return poset.ids[x]
        table.append(g)
    return tuple(table)


def instances(count=100):
    """Random lattices, family posets of random subconfluences, their
    restrictions to random subsets, and inclusion orders on random patterns
    and their reverses (the last three often neither lattices nor
    confluences)."""
    for seed in range(count):
        rng = random.Random(seed)
        lat = random_lattice(rng)
        yield f"lattice {seed}", lat.poset
        yield f"restricted lattice {seed}", lat.poset.restrict(dense_subset(rng, lat.n))[0]
        poset = family_poset(random_explicit_subconfluence(rng, 6).patterns)
        yield f"family {seed}", poset
        yield f"restricted family {seed}", poset.restrict(dense_subset(rng, poset.n))[0]
        patterns = {rng.randint(1, 30) for _ in range(rng.randint(1, 14))}
        bounds = rng.choice([(), (31,), (0, 31)])  # none, a top, a top and a bottom
        poset = family_poset(sorted(patterns.union(bounds)))
        yield f"patterns {seed}", poset
        yield f"reversed patterns {seed}", poset.dual()


def dense_subset(rng, n):
    return mask_of(i for i in range(n) if rng.random() < 0.75) or 1


def random_members(rng, poset):
    """Random member masks, half of them forced to hold every maximal element."""
    maximals = mask_of(g for g in range(poset.n) if between(poset, lo=[g]) == 1 << g)
    for _ in range(4):
        members = random_subset(rng, poset.n)
        yield members | maximals if rng.random() < 0.5 else members


class TestAgainstTheDefinition:
    def test_is_confluence(self):
        outcomes = set()
        for label, poset in instances():
            verdict = is_confluence(poset)
            assert (verdict.ok, verdict.witness) == reference_is_confluence(poset), label
            outcomes.add("ok" if verdict else "no top" if verdict.witness[1] is None else "pair")
        assert outcomes == {"ok", "no top", "pair"}

    def test_from_poset(self):
        outcomes = set()
        for label, poset in instances():
            expected = reference_lattice(poset)
            try:
                lat = FiniteLattice(poset)
            except LatticeError as exc:
                got = str(exc)
                outcomes.add(got.split("has ")[-1])
            else:
                cells = range(poset.n)
                got = ([[lat.meet(i, j) for j in cells] for i in cells],
                       [[lat.join(i, j) for j in cells] for i in cells], lat.top, lat.bottom)
                outcomes.add("lattice")
                dual = lat.dual()
                for i in cells:
                    for j in cells:
                        assert dual.meet(i, j) == lat.join(i, j), (label, i, j)
                        assert dual.join(i, j) == lat.meet(i, j), (label, i, j)
            assert got == expected, label
        assert outcomes == {
            "lattice", "no top element", "no bottom element", "no meet", "no join"
        }

    def test_local_join(self):
        for label, poset in instances():
            if not reference_is_confluence(poset)[0]:
                continue
            conf = ExplicitConfluence(poset)
            for x in range(poset.n):
                for y in range(poset.n):
                    expected = least(poset, between(poset, lo=[x, y]))
                    assert conf.local_join(x, y) == expected, (label, x, y)

    def test_local_top_and_local_meet(self):
        queries = 0
        for label, poset in instances():
            if not reference_is_confluence(poset)[0]:
                continue
            conf = ExplicitConfluence(poset)
            ups = [between(poset, lo=[t]) for t in range(poset.n)]
            downs = [between(poset, hi=[x]) for x in range(poset.n)]
            for t in range(poset.n):
                for m in conf.minimal_indices:
                    if poset.leq(m, t):
                        assert conf.local_tops[m] == greatest(poset, ups[t]), (label, m, t)
                above = list(iter_indices(ups[t]))
                for a, x in enumerate(above):
                    for y in above[a:]:
                        expected = greatest(poset, ups[t] & downs[x] & downs[y])
                        assert conf.local_meet(t, x, y) == expected, (label, t, x, y)
                        assert conf.local_meet(t, y, x) == expected, (label, t, y, x)
                        queries += 1
                outside = next(iter_indices(poset.full_mask & ~ups[t]), None)
                if outside is not None:
                    with pytest.raises(ValueError, match="must lie above the base"):
                        conf.local_meet(t, t, outside)
        assert queries

    def test_closure_from_subset(self):
        rng = random.Random(7)
        found = set()
        for label, poset in instances():
            for members in random_members(rng, poset):
                expected = reference_closure_table(poset, members)
                op, witness = closure_from_subset(poset, members)
                got = witness if op is None else op.table
                assert got == expected, (label, members)
                found.add(op is None)
        assert found == {True, False}

    def test_closure_from_local_meet_subset(self):
        rng = random.Random(11)
        closed = 0
        for label, poset in instances():
            if not reference_is_confluence(poset)[0]:
                continue
            conf = ExplicitConfluence(poset)
            for members in random_members(rng, poset):
                if not is_closed_under_local_meet(conf, members):
                    with pytest.raises(NotLocallyMeetClosedError):
                        closure_from_local_meet_subset(conf, members)
                    continue
                op = closure_from_local_meet_subset(conf, members)
                assert op.table == reference_closure_table(poset, members), (label, members)
                closed += 1
        assert closed


def test_principal_bounds_need_no_scan(monkeypatch):
    # Every bound is a lookup in a principal-set table: no bound scan is left.
    assert not hasattr(confmine.order, "_greatest_of")
    assert not hasattr(confmine.confluence, "_greatest_of")
    # Nor is there a second constructor or a caller-supplied table to re-check.
    assert not hasattr(FiniteLattice, "from_poset") and not hasattr(FiniteLattice, "_verify")
    lat = powerset_lattice(6)
    assert not hasattr(lat, "meet_table") and not hasattr(lat, "join_table")
    assert is_confluence(lat.poset)
    for x in range(lat.n):
        for y in range(lat.n):
            assert lat.meet(x, y) == x & y and lat.join(x, y) == x | y
    poset = family_poset(random_explicit_subconfluence(random.Random(3), 6).patterns)
    assert is_confluence(poset)
    with contextlib.suppress(LatticeError):
        FiniteLattice(poset)
    for m in iter_indices(poset.minimal_mask()):
        FiniteLattice(poset.restrict(poset.up[m])[0])

    def no_leq(self, i, j):
        raise AssertionError(f"leq({i}, {j}) called")

    # Nor is the minimal below t found by a scan: once a confluence is built,
    # every local meet is answered without a single leq.
    confluences = 0
    for _, poset in instances():
        if not is_confluence(poset):
            continue
        conf = ExplicitConfluence(poset)
        confluences += 1
        with monkeypatch.context() as patch:
            patch.setattr(FinitePoset, "leq", no_leq)
            for t in range(poset.n):
                above = list(iter_indices(poset.up[t]))
                for a, x in enumerate(above):
                    for y in above[a:]:
                        conf.local_meet(t, x, y)
    assert confluences > 100
