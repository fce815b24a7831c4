"""Support-equivalence classes, the min-max basis split into internal and
external parts, and implication validity checking."""

import random

import pytest

import confmine as cm
from confmine.families import ExplicitFamily, FamilyError
from confmine.oracle import materialize, oracle_closed_set
from confmine.patterns import is_subset

from conftest import build_context
from randomized import (
    random_context,
    random_explicit_subconfluence,
    random_graph,
    random_vertex_instance,
)


def fmt_basis(universe, basis):
    return {
        (universe.format(i.premise), universe.format(i.conclusion), i.kind)
        for i in basis
    }


class TestEquivalenceClasses:
    def test_five_family_classes(self, five_context, five_family, five_universe):
        u = five_universe
        classes = cm.equivalence_classes(five_context, five_family, materialize(five_family))
        by_extent = {c.extent: c for c in classes}
        assert set(by_extent) == {0b111, 0b110, 0b100}
        full = by_extent[0b111]
        assert set(full.members) == {u.mask("a"), u.mask("b")}
        assert set(full.generators) == {u.mask("a"), u.mask("b")}
        assert set(full.closed) == {u.mask("a"), u.mask("b")}
        deep = by_extent[0b100]
        assert set(deep.members) == {u.mask("abd"), u.mask("abcd")}
        assert deep.generators == (u.mask("abd"),)
        assert deep.closed == (u.mask("abcd"),)

    def test_single_full_description_object(self, five_family, five_universe):
        u = five_universe
        ctx = build_context(u, {"o1": "a b c d"})
        classes = cm.equivalence_classes(ctx, five_family, materialize(five_family))
        assert len(classes) == 1
        assert set(classes[0].members) == set(five_family.patterns)

    def test_wedge_classes(self, wedge_context, wedge_family, wedge_universe):
        u = wedge_universe
        classes = cm.equivalence_classes(
            wedge_context, wedge_family, materialize(wedge_family)
        )
        got = {c.extent: set(c.members) for c in classes}
        assert got == {
            0b011: {u.mask("ab"), u.mask("abd")},
            0b110: {u.mask("ac"), u.mask("acd")},
            0b010: {u.mask("abc"), u.mask("abcd")},
        }

    def test_generators_have_nothing_below(self):
        rng = random.Random(53)
        for _ in range(10):
            g = random_graph(rng, max_vertices=5)
            fam = cm.ConnectedVertexFamily(g)
            ctx = random_context(rng, fam.universe, max_objects=6)
            members = materialize(fam)
            for cls in cm.equivalence_classes(ctx, fam, members):
                for gen in cls.generators:
                    assert not any(
                        q != gen and is_subset(q, gen) for q in cls.members
                    )

    def test_every_member_below_a_closed_classmate(self):
        rng = random.Random(59)
        for _ in range(10):
            g = random_graph(rng, max_vertices=5)
            fam = cm.ConnectedVertexFamily(g)
            ctx = random_context(rng, fam.universe, max_objects=6)
            members = materialize(fam)
            for cls in cm.equivalence_classes(ctx, fam, members):
                for t in cls.members:
                    closed = cm.support_closure(ctx, fam, t)
                    assert closed in cls.closed
                    assert is_subset(t, closed)


class TestClassesAgainstOracle:
    """Classes, generators and closed members recomputed by brute force."""

    def _families(self, rng):
        g = random_graph(rng, max_vertices=6)
        for min_size in (1, 2, 3):
            try:
                yield cm.ConnectedVertexFamily(g, min_size)
            except FamilyError:
                pass  # no connected vertex set that large
        if len(g.edges) <= 8:
            yield cm.ConnectedEdgeFamily(g)
        yield cm.KGapWordFamily(rng.randint(2, 6), rng.randint(1, 3))
        yield random_explicit_subconfluence(rng, n_items=rng.randint(2, 6))

    def test_classes_match_oracle_across_family_kinds(self):
        rng = random.Random(61)
        shuffler = random.Random(67)  # apart from rng, so the instances stay the same
        identity = cm.ExtensionalAbstraction()
        inaccessible = 0
        for _ in range(60):
            for fam in self._families(rng):
                members = materialize(fam)
                inaccessible += not cm.is_strongly_accessible(members)
                ctx = random_context(rng, fam.universe, max_objects=6)
                closed_all = oracle_closed_set(ctx, members, identity)
                by_extent = {}
                for t in members:
                    extent = sum(
                        1 << o for o, d in enumerate(ctx.descriptions) if is_subset(t, d)
                    )
                    by_extent.setdefault(extent, []).append(t)
                shuffled = list(members)
                shuffler.shuffle(shuffled)
                for order in (members, shuffled):
                    classes = cm.equivalence_classes(ctx, fam, order)
                    assert [c.extent for c in classes] == sorted(by_extent)
                    for cls in classes:
                        group = sorted(by_extent[cls.extent])
                        assert cls.members == tuple(group)
                        assert cls.generators == tuple(
                            p for p in group if not any(q != p and is_subset(q, p) for q in group)
                        )
                        assert cls.closed == tuple(t for t in group if t in closed_all)
        assert inaccessible > 0


class TestMinMaxBasis:
    def test_five_family_basis(self, five_context, five_family, five_universe):
        basis = cm.minmax_basis(five_context, five_family, materialize(five_family))
        assert fmt_basis(five_universe, basis) == {
            ("a", "b", "external"),
            ("b", "a", "external"),
            ("a b d", "a b c d", "internal"),
        }

    def test_all_closed_distinct_supports_empty_basis(self, five_universe):
        u = five_universe
        fam = ExplicitFamily([u.mask("a"), u.mask("ab"), u.mask("abc")], u)
        ctx = build_context(u, {"o1": "a", "o2": "a b", "o3": "a b c"})
        assert cm.minmax_basis(ctx, fam, materialize(fam)) == []

    def test_wedge_basis(self, wedge_context, wedge_family, wedge_universe):
        basis = cm.minmax_basis(wedge_context, wedge_family, materialize(wedge_family))
        assert fmt_basis(wedge_universe, basis) == {
            ("a b", "a b d", "internal"),
            ("a c", "a c d", "internal"),
            ("a b c", "a b c d", "internal"),
        }

    def test_basis_implications_all_valid(self):
        rng = random.Random(61)
        for _ in range(15):
            g = random_graph(rng, max_vertices=5)
            fam = cm.ConnectedVertexFamily(g)
            ctx = random_context(rng, fam.universe, max_objects=7)
            members = materialize(fam)
            for imp in cm.minmax_basis(ctx, fam, members):
                assert fam.contains(imp.premise) and fam.contains(imp.conclusion)
                assert cm.extension(ctx, imp.premise) == cm.extension(ctx, imp.conclusion)
                assert imp.premise != imp.conclusion
                if imp.kind == "internal":
                    assert is_subset(imp.premise, imp.conclusion)
                else:
                    assert not is_subset(imp.premise, imp.conclusion)
                    assert not is_subset(imp.conclusion, imp.premise)

    def test_lattice_degeneration_internal_only(self):
        # single-minimal family: every class is rooted below its closed member
        rng = random.Random(67)
        u = cm.Universe(["a", "b", "c"])
        fam = ExplicitFamily(range(8), u)
        for _ in range(15):
            ctx = random_context(rng, u, max_objects=5)
            members = materialize(fam)
            basis = cm.minmax_basis(ctx, fam, members)
            assert all(imp.kind == "internal" for imp in basis)
            # classical pairing: premise a generator, conclusion the unique
            # closed member of its class
            for imp in basis:
                closed = cm.intension(ctx, cm.extension(ctx, imp.premise))
                assert imp.conclusion == closed


class TestMembersArgument:
    """The support classes group and sort lists of their own: the caller's
    members are left as given, whatever their sequence type and order."""

    @pytest.mark.parametrize("route", ["equivalence_classes", "minmax_basis"])
    @pytest.mark.parametrize("shape", ["list", "tuple", "shuffled list"])
    def test_members_left_as_given(self, route, shape):
        cfg = random_vertex_instance(5, 10, 14, 12)
        members = materialize(cfg.family)
        if shape == "tuple":
            members = tuple(members)
        elif shape == "shuffled list":
            random.Random(5).shuffle(members)
        given = list(members)
        assert len(getattr(cm, route)(cfg.context, cfg.family, members)) > 1
        assert len(members) == len(given)
        assert all(a is b for a, b in zip(members, given))


class TestImplicationRecord:
    def test_fields_read_by_name(self):
        imp = cm.Implication(0b01, 0b11, "internal")
        assert (imp.premise, imp.conclusion, imp.kind) == (0b01, 0b11, "internal")

    def test_fields_cannot_be_assigned(self):
        imp = cm.Implication(0b01, 0b11, "internal")
        with pytest.raises(AttributeError):
            imp.premise = 0b10

    def test_equal_fields_give_equal_hashable_records(self):
        a = cm.Implication(0b01, 0b11, "internal")
        b = cm.Implication(0b01, 0b11, "internal")
        assert a == b and hash(a) == hash(b)
        assert len({a, b, cm.Implication(0b11, 0b01, "external")}) == 2

    def test_basis_sorted_by_premise_then_conclusion(self):
        rng = random.Random(71)
        longest = 0
        for _ in range(15):
            fam = cm.ConnectedVertexFamily(random_graph(rng, max_vertices=6))
            ctx = random_context(rng, fam.universe, max_objects=6)
            basis = cm.minmax_basis(ctx, fam, materialize(fam))
            pairs = [(imp.premise, imp.conclusion) for imp in basis]
            assert all(x < y for x, y in zip(pairs, pairs[1:]))
            longest = max(longest, len(pairs))
        assert longest > 1
