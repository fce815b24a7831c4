"""Confluence recognition, local meets/joins, locally meet-closed subsets,
subconfluences, and host closures projected onto a subconfluence."""

import random
from collections import Counter
from functools import partial

import pytest

import confmine as cm
from confmine.confluence import ExplicitConfluence, NotLocallyMeetClosedError
from confmine.families import ExplicitFamily
from confmine.oracle import family_poset
from confmine.order import (
    FiniteLattice,
    FinitePoset,
    OperatorMap,
    Verdict,
    meet_closed,
    powerset_lattice,
)
from confmine.patterns import Universe, is_subset, iter_indices, mask_of

from randomized import meet_close, random_subconfluence_masks


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
        assert p.ids[op.table[p.index(m("abd"))]] == m("abcd")
        for x in ("a", "b", "abc", "abcd"):
            assert op.table[p.index(m(x))] == p.index(m(x))
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


ABCD = Universe("abcd")


def lifted_closure(fam: ExplicitFamily, descriptions) -> dict[int, int]:
    """The support closure of each member, over one object per description:
    the host closure onto the descriptions' meets, projected at the member."""
    objects = cm.Universe(f"o{i}" for i in range(len(descriptions)))
    ctx = cm.ObjectContext(objects, tuple(descriptions), fam.universe)
    return {t: cm.support_closure(ctx, fam, t) for t in fam.members()}


def is_closure(table: dict[int, int]) -> bool:
    """Is a map on family members a closure for their inclusion order?"""
    poset = family_poset(table)
    op = OperatorMap(poset, [poset.index(table[t]) for t in poset.ids])
    return cm.classify_operator(op).kind == "closure"


class TestInteriorFamily:
    """A subconfluence's projection at t is the interior above t: the greatest
    member below x that contains t, whichever member below t anchors it."""

    def test_projection_fixes_members(self):
        fam = ExplicitFamily([0, m("ab"), m("ac"), m("abc")], ABCD)
        assert fam.project(m("ab"), m("ab")) == m("ab")

    def test_projection_at_bottom(self):
        fam = ExplicitFamily([0, m("ab"), m("ac"), m("abc")], ABCD)
        assert fam.project(0, m("abcd")) == m("abc")
        assert fam.project(0, m("a")) == 0

    def test_projection_coherence(self):
        members = [m(p) for p in ("ab", "ac", "abc", "abd", "acd", "abcd")]
        fam = ExplicitFamily(members, Universe("abcde"))
        for t in members:
            for q in members:
                if is_subset(q, t):
                    for x in range(32):
                        if is_subset(t, x):
                            assert fam.project(t, x) == fam.project(q, x)


class TestLiftClosure:
    """A closure on the powerset, lifted to a subconfluence by projecting at
    each member, is a closure on the subconfluence.  Every closure on a finite
    powerset is intension . extension over its closed sets as descriptions,
    so the lift is the support closure over that context."""

    def test_identity_lifts_to_identity(self):
        fam = ExplicitFamily([m("ab"), m("ac"), m("abc")], ABCD)
        assert lifted_closure(fam, range(16)) == {t: t for t in fam.members()}

    def test_constant_top_lifts_to_local_tops(self):
        fam = ExplicitFamily([m("a"), m("b"), m("abc"), m("abd"), m("abcd")], ABCD)
        assert set(lifted_closure(fam, [m("abcd")]).values()) == {m("abcd")}

    def test_support_closure_table(self):
        # host closure x -> intension(extension(x)) over descriptions ab/abc/abcd
        fam = ExplicitFamily([m("a"), m("b"), m("abc"), m("abd"), m("abcd")], ABCD)
        got = lifted_closure(fam, [m("ab"), m("abc"), m("abcd")])
        assert got == {
            m("a"): m("a"),
            m("b"): m("b"),
            m("abc"): m("abc"),
            m("abd"): m("abcd"),
            m("abcd"): m("abcd"),
        }
        assert is_closure(got)


# --- randomized suites -------------------------------------------------------

def random_confluence(rng: random.Random) -> ExplicitConfluence:
    return ExplicitConfluence(family_poset(random_subconfluence_masks(rng, 5)))


@pytest.mark.parametrize("seed", range(200))
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
    below = p.down[t] & p.minimal_mask()
    top = conf.local_tops[(below & -below).bit_length() - 1]
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


@pytest.mark.parametrize("seed", range(200))
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


@pytest.mark.parametrize("seed", range(200))
def test_lifted_closure_laws(seed):
    rng = random.Random(seed)
    host = powerset_lattice(4)
    fam = ExplicitFamily(random_subconfluence_masks(rng, 4), ABCD)
    closed = meet_close(host, mask_of(rng.randrange(16) for _ in range(rng.randint(0, 5))))
    f, witness = cm.closure_from_subset(host.poset, closed)
    assert witness is None
    descriptions = list(iter_indices(closed))
    # on the whole powerset, whose projections are identities, the lift is f
    assert lifted_closure(ExplicitFamily(range(16), ABCD), descriptions) == dict(enumerate(f.table))
    got = lifted_closure(fam, descriptions)
    assert got == {t: fam.project(t, f.table[t]) for t in fam.members()}
    assert is_closure(got)
