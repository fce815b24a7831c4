"""Confluence recognition, local meets/joins, locally meet-closed subsets,
subconfluences, interior projections, and lifted closures."""

import random
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confmine as cm
from confmine.confluence import ExplicitConfluence, InteriorFamily, NotLocallyMeetClosedError
from confmine.oracle import family_poset
from confmine.order import (
    FiniteLattice,
    FinitePoset,
    OperatorMap,
    Verdict,
    meet_closed,
    powerset_lattice,
)
from confmine.patterns import is_subset, iter_indices, mask_of

from randomized import random_subconfluence_masks


def m(letters: str) -> int:
    return mask_of("abcde".index(ch) for ch in letters)


def poset_of(*patterns: str):
    return family_poset([m(p) for p in patterns])


@pytest.fixture(scope="module")
def quint():
    return ExplicitConfluence(poset_of("a", "b", "abc", "abd", "abcd"))


class TestIsConfluence:
    def test_lattice_is_confluence(self):
        assert cm.is_confluence(powerset_lattice(3).poset)

    def test_two_minimal_family(self, quint):
        verdict = cm.is_confluence(quint.carrier)
        assert verdict
        assert {quint.carrier.ids[i] for i in quint.minimal_indices} == {m("a"), m("b")}

    def test_missing_local_top(self):
        verdict = cm.is_confluence(poset_of("a", "b", "abc", "abd"))
        assert not verdict
        assert verdict.witness == (m("a"), None)

    def test_explicit_confluence_rejects(self):
        with pytest.raises(cm.NotConfluenceError):
            ExplicitConfluence(poset_of("a", "b", "abc", "abd"))


class TestLocalMeetJoin:
    def test_local_meet_depends_on_base(self, quint):
        p = quint.carrier
        a, b = p.index(m("a")), p.index(m("b"))
        abc, abd = p.index(m("abc")), p.index(m("abd"))
        assert p.ids[quint.local_meet(a, abc, abd)] == m("a")
        assert p.ids[quint.local_meet(b, abc, abd)] == m("b")

    def test_local_meet_idempotent_and_top_neutral(self, quint):
        p = quint.carrier
        a, abc = p.index(m("a")), p.index(m("abc"))
        top = p.index(m("abcd"))
        assert quint.local_meet(a, abc, abc) == abc
        assert quint.local_meet(a, abc, top) == abc

    def test_local_meet_rejects_outside_up_set(self, quint):
        p = quint.carrier
        with pytest.raises(ValueError):
            quint.local_meet(p.index(m("abc")), p.index(m("a")), p.index(m("abd")))

    def test_local_join_examples(self, quint):
        p = quint.carrier
        abc, abd = p.index(m("abc")), p.index(m("abd"))
        assert p.ids[quint.local_join(abc, abd)] == m("abcd")
        assert quint.local_join(abc, abc) == abc

    def test_local_join_with_single_upper(self):
        conf = ExplicitConfluence(poset_of("a", "b", "abc"))
        p = conf.carrier
        assert p.ids[conf.local_join(p.index(m("a")), p.index(m("b")))] == m("abc")

    def test_local_join_absent(self):
        conf = ExplicitConfluence(poset_of("a", "b"))
        assert conf.local_join(0, 1) is None

    def test_local_join_independent_of_base(self, quint):
        # wherever x and y share a lower bound, the join computed inside that
        # up set equals the global least upper bound
        p = quint.carrier
        for x in range(p.n):
            for y in range(p.n):
                ub = p.up[x] & p.up[y]
                for t in range(p.n):
                    if (p.up[t] >> x) & 1 and (p.up[t] >> y) & 1:
                        local = [g for g in iter_indices(ub & p.up[t]) if not (ub & ~p.up[g])]
                        assert local and local[0] == quint.local_join(x, y)


class TestClosedUnderLocalMeet:
    def test_whole_family_closed(self):
        conf = ExplicitConfluence(poset_of("a", "b", "abc"))
        assert cm.is_closed_under_local_meet(conf, conf.carrier.full_mask)

    def test_missing_empty_meet(self):
        conf = ExplicitConfluence(poset_of("a", "b", "abc"))
        p = conf.carrier
        members = mask_of([p.index(m("a")), p.index(m("b"))])
        verdict = cm.is_closed_under_local_meet(conf, members)
        assert not verdict
        assert verdict.witness == (m("a"), None)  # the local top above a is missing

    def test_closure_construction(self, quint):
        p = quint.carrier
        members = mask_of(p.index(m(x)) for x in ("a", "b", "abc", "abcd"))
        op = cm.closure_from_local_meet_subset(quint, members)
        assert p.ids[op.apply(p.index(m("abd")))] == m("abcd")
        for x in ("a", "b", "abc", "abcd"):
            assert op.apply(p.index(m(x))) == p.index(m(x))
        assert cm.classify_operator(op).kind == "closure"
        assert op.range_mask() == members

    def test_identity_when_subset_is_whole_family(self):
        conf = ExplicitConfluence(poset_of("a", "b", "abc"))
        op = cm.closure_from_local_meet_subset(conf, conf.carrier.full_mask)
        assert op.table == tuple(range(conf.carrier.n))

    def test_tops_only_subset(self, quint):
        p = quint.carrier
        members = 1 << p.index(m("abcd"))
        op = cm.closure_from_local_meet_subset(quint, members)
        assert all(p.ids[v] == m("abcd") for v in op.table)

    def test_rejects_unclosed_subset(self, quint):
        p = quint.carrier
        members = mask_of([p.index(m("a")), p.index(m("abc")), p.index(m("abd"))])
        with pytest.raises(NotLocallyMeetClosedError) as exc:
            cm.closure_from_local_meet_subset(quint, members)
        assert exc.value.witness is not None


class TestSubconfluence:
    def test_positive_pair(self):
        host = powerset_lattice(4)
        assert cm.is_subconfluence(host, mask_of([m("ab"), m("ac")]))

    def test_negative_with_bottom(self):
        host = powerset_lattice(4)
        verdict = cm.is_subconfluence(host, mask_of([0, m("ab"), m("ac")]))
        assert not verdict
        assert verdict.witness == (0, m("ab"), m("ac"))

    def test_abstraction_is_subconfluence(self):
        host = powerset_lattice(4)
        assert cm.is_subconfluence(host, mask_of([0, m("ab"), m("ac"), m("abc")]))


class TestInteriorFamily:
    def test_projection_fixes_members(self):
        host = powerset_lattice(4)
        fam = InteriorFamily(host, mask_of([0, m("ab"), m("ac"), m("abc")]))
        assert fam.project(m("ab"), m("ab")) == m("ab")

    def test_projection_at_bottom(self):
        host = powerset_lattice(4)
        fam = InteriorFamily(host, mask_of([0, m("ab"), m("ac"), m("abc")]))
        assert fam.project(0, m("abcd")) == m("abc")
        assert fam.project(0, m("a")) == 0

    def test_rejects_non_subconfluence(self):
        host = powerset_lattice(4)
        with pytest.raises(cm.NotSubconfluenceError):
            InteriorFamily(host, mask_of([0, m("ab"), m("ac")]))

    def test_rejects_empty_family(self):
        with pytest.raises(ValueError, match="^empty family$"):
            InteriorFamily(powerset_lattice(2), 0)

    def test_rejects_bad_arguments(self):
        host = powerset_lattice(4)
        fam = InteriorFamily(host, mask_of([m("ab"), m("ac")]))
        with pytest.raises(ValueError, match="^projection base must belong to the family$"):
            fam.project(m("a"), m("abc"))
        with pytest.raises(ValueError, match="^projection argument must contain the base$"):
            fam.project(m("ab"), m("a"))

    def test_projection_coherence(self):
        host = powerset_lattice(5)
        members = mask_of([m(p) for p in ("ab", "ac", "abc", "abd", "acd", "abcd")])
        fam = InteriorFamily(host, members)
        for t in iter_indices(members):
            for q in iter_indices(members & host.poset.down[t]):
                for x in iter_indices(host.poset.up[t]):
                    assert fam.project(t, x) == fam.project(q, x)


class TestLiftClosure:
    def test_identity_lifts_to_identity(self):
        host = powerset_lattice(4)
        fam = InteriorFamily(host, mask_of([m("ab"), m("ac"), m("abc")]))
        lifted = cm.lift_closure(fam, OperatorMap.identity(host.poset))
        assert lifted.table == tuple(range(3))

    def test_constant_top_lifts_to_local_tops(self):
        host = powerset_lattice(4)
        members = mask_of([m("a"), m("b"), m("abc"), m("abd"), m("abcd")])
        fam = InteriorFamily(host, members)
        lifted = cm.lift_closure(fam, OperatorMap.constant(host.poset, host.top))
        assert all(lifted.domain.ids[v] == m("abcd") for v in lifted.table)

    def test_support_closure_table(self):
        # host closure x -> intension(extension(x)) over descriptions ab/abc/abcd
        host = powerset_lattice(4)
        descriptions = [m("ab"), m("abc"), m("abcd")]

        def close(x: int) -> int:
            acc = m("abcd")
            for d in descriptions:
                if is_subset(x, d):
                    acc &= d
            return acc

        f = OperatorMap(host.poset, [close(x) for x in range(16)])
        assert cm.classify_operator(f).kind == "closure"
        members = mask_of([m("a"), m("b"), m("abc"), m("abd"), m("abcd")])
        fam = InteriorFamily(host, members)
        lifted = cm.lift_closure(fam, f)
        expected = {
            m("a"): m("a"),
            m("b"): m("b"),
            m("abc"): m("abc"),
            m("abd"): m("abcd"),
            m("abcd"): m("abcd"),
        }
        got = {
            lifted.domain.ids[i]: lifted.domain.ids[v] for i, v in enumerate(lifted.table)
        }
        assert got == expected
        assert cm.classify_operator(lifted).kind == "closure"

    def test_rejects_non_closure(self):
        host = powerset_lattice(3)
        fam = InteriorFamily(host, mask_of([1, 3]))
        bad = OperatorMap(host.poset, [0] * 8)  # constant-to-bottom: not extensive
        with pytest.raises(ValueError, match="closure"):
            cm.lift_closure(fam, bad)

    def test_rejects_closure_on_another_host(self):
        fam = InteriorFamily(powerset_lattice(3), mask_of([1, 3]))
        other = OperatorMap.identity(powerset_lattice(2).poset)
        with pytest.raises(ValueError, match="^closure must live on the family's host lattice$"):
            cm.lift_closure(fam, other)


# --- randomized suites -------------------------------------------------------

def random_confluence(rng: random.Random) -> ExplicitConfluence:
    return ExplicitConfluence(family_poset(random_subconfluence_masks(rng, 5)))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_locally_meet_closed_iff_closure_subset(seed):
    rng = random.Random(seed)
    conf = random_confluence(rng)
    p = conf.carrier
    members = 0
    for i in range(p.n):
        if rng.random() < 0.5:
            members |= 1 << i
    for top in set(conf.local_tops.values()):
        if rng.random() < 0.8:
            members |= 1 << top
    if members == 0:
        members = 1 << conf.local_tops[conf.minimal_indices[0]]
    verdict = cm.is_closed_under_local_meet(conf, members)
    if verdict:
        op = cm.closure_from_local_meet_subset(conf, members)
        assert cm.classify_operator(op).kind == "closure"
        assert op.range_mask() == members
        sub, _ = p.restrict(members)
        assert cm.is_confluence(sub)
    else:
        with pytest.raises(NotLocallyMeetClosedError):
            cm.closure_from_local_meet_subset(conf, members)


def _meet_closed_above(conf: ExplicitConfluence, members: int, t: int) -> Verdict:
    """The local-meet test above one element t, with t's witness."""
    p = conf.carrier
    top = conf.local_top_of(t)
    verdict = meet_closed(p.ids, members & p.up[t], top, partial(conf.local_meet, t))
    if verdict:
        return verdict
    return Verdict(False, (p.ids[t], verdict.witness if (members >> top) & 1 else None))


def _shuffled(poset: FinitePoset, rng: random.Random) -> FinitePoset:
    """The same order under a random index order, which need not extend it."""
    order = list(range(poset.n))
    rng.shuffle(order)
    pos = {o: k for k, o in enumerate(order)}
    up = [mask_of(pos[j] for j in iter_indices(poset.up[o])) for o in order]
    return FinitePoset([poset.ids[o] for o in order], up)


def test_minimal_elements_decide_local_meet_closure():
    # The definition tries every element t in index order.  The verdict must
    # agree; so must the witness when the index order extends the order, and
    # otherwise the witness is a minimal whose own test fails.
    rng = random.Random(83)
    failures, moved = Counter(), 0
    for trial in range(2400):
        poset = family_poset(random_subconfluence_masks(rng, 6, n_seeds=6))
        mask_sorted = trial % 2 == 0
        conf = ExplicitConfluence(poset if mask_sorted else _shuffled(poset, rng))
        members = mask_of(i for i in range(poset.n) if rng.random() < 0.5)
        members |= mask_of(top for top in conf.local_tops.values() if rng.random() < 0.5)
        verdict = cm.is_closed_under_local_meet(conf, members)
        definition = next(
            (v for t in range(poset.n) if not (v := _meet_closed_above(conf, members, t))),
            Verdict(True),
        )
        assert bool(verdict) == bool(definition)
        if verdict:
            continue
        failures[mask_sorted] += 1
        if mask_sorted:
            assert verdict == definition
        else:
            m = conf.carrier.index(verdict.witness[0])
            assert m in conf.minimal_indices
            assert verdict == _meet_closed_above(conf, members, m)
            moved += verdict != definition
    assert failures[True] > 300 and failures[False] > 300 and moved > 30


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_subconfluence_three_way_equivalence(seed):
    rng = random.Random(seed)
    host = powerset_lattice(4)
    members = 0
    for _ in range(rng.randint(1, 6)):
        members |= 1 << rng.randint(1, 15)
    form_join = bool(cm.is_subconfluence(host, members))

    # per-member up sets must be join closed inside the host interval
    form_interior = True
    for t in iter_indices(members):
        sub, old = host.poset.restrict(host.poset.up[t])
        lat = FiniteLattice(sub)
        pos = {o: k for k, o in enumerate(old)}
        fam_mask = 0
        for x in iter_indices(members & host.poset.up[t]):
            fam_mask |= 1 << pos[x]
        if not cm.is_join_closed(lat, fam_mask):
            form_interior = False
            break

    # the restricted order must be a confluence whose local join is the union
    sub, old = host.poset.restrict(members)
    form_order = bool(cm.is_confluence(sub))
    if form_order:
        conf = ExplicitConfluence(sub)
        for x in range(sub.n):
            for y in range(sub.n):
                if sub.down[x] & sub.down[y]:
                    j = conf.local_join(x, y)
                    if j is None or sub.ids[j] != sub.ids[x] | sub.ids[y]:
                        form_order = False

    assert form_join == form_interior == form_order


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_lifted_closure_laws(seed):
    rng = random.Random(seed)
    host = powerset_lattice(4)
    masks = random_subconfluence_masks(rng, 4)
    fam = InteriorFamily(host, mask_of(masks))
    closed = 1 << host.top
    for _ in range(rng.randint(0, 5)):
        closed |= 1 << rng.randrange(16)
    changed = True
    while changed:
        changed = False
        elems = list(iter_indices(closed))
        for a, i in enumerate(elems):
            for j in elems[a:]:
                v = host.meet(i, j)
                if not (closed >> v) & 1:
                    closed |= 1 << v
                    changed = True
    f, witness = cm.closure_from_subset(host.poset, closed)
    assert witness is None
    lifted = cm.lift_closure(fam, f)
    assert cm.classify_operator(lifted).kind == "closure"
