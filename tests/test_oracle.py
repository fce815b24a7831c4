"""Brute-force oracle: materialization, scan-based closures, closed-set
computation, the bundled verification report, and the tests' random generators."""

import random

import pytest

import confmine as cm
from confmine.families import FamilyError, PatternFamily, _connected_sets, subconfluence_violation
from confmine.oracle import CheckResult, _check_subconfluence, family_poset, oracle_closed_set
from confmine.order import powerset_lattice
from confmine.patterns import is_subset, iter_indices

from conftest import build_context
from randomized import (
    random_explicit_subconfluence,
    random_graph,
    random_subconfluence_masks,
    random_sublattice_mask,
)


def path_graph(*names):
    return cm.GraphSpec.build(tuple(names), [(names[i], names[i + 1]) for i in range(len(names) - 1)])


class TestMaterialize:
    def test_quad_edge_family_count(self, quad_edge_family):
        members = cm.materialize(quad_edge_family)
        assert len(members) == 14  # all connected edge subsets of the quad graph
        u = quad_edge_family.universe
        assert u.mask("ab") not in members
        for pat in ("a", "b", "abc", "abd", "abcd"):
            assert u.mask(pat) in members

    def test_path_vertex_family(self):
        fam = cm.ConnectedVertexFamily(path_graph("a", "b", "c"))
        u = fam.universe
        assert cm.materialize(fam) == sorted(
            u.mask(p) for p in ("a", "b", "c", "ab", "bc", "abc")
        )

    def test_explicit_family_returns_itself(self, five_family):
        assert cm.materialize(five_family) == sorted(five_family.patterns)

    def test_budget_exceeded(self):
        # eight minimal members against a budget of 5: the sixth raises
        fam = cm.ConnectedVertexFamily(path_graph(*"abcdefgh"))
        with pytest.raises(cm.BudgetExceededError, match=r"of 5 \(found 6\+ members\)") as exc:
            cm.materialize(fam, budget=5)
        assert exc.value.partial == 6

    def test_budget_counts_the_minimals(self):
        # five isolated vertices: five minimal members and no augmentation
        graph = cm.GraphSpec(tuple("abcde"), (), ())
        with pytest.raises(cm.BudgetExceededError) as exc:
            cm.materialize(cm.ConnectedVertexFamily(graph), budget=3)
        assert exc.value.partial == 4

    @staticmethod
    def _families(rng):
        g = random_graph(rng, max_vertices=8, edge_prob=rng.choice([0.15, 0.3, 0.5]))
        for min_size in range(1, len(g.vertices) + 1):
            try:
                yield cm.ConnectedVertexFamily(g, min_size)
            except FamilyError:
                break  # no connected vertex set that large, nor any larger
        if len(g.edges) <= 10:
            yield cm.ConnectedEdgeFamily(g)
        yield cm.KGapWordFamily(rng.randint(1, 8), rng.randint(1, 3))

    def test_agrees_with_membership_scan(self):
        # The connected-set walk yields each member once; materialize agrees
        # with a brute-force membership scan, with the PatternFamily default
        # augmentation search and, under every smaller budget, raises at
        # exactly budget + 1 members.
        rng = random.Random(53)
        checked = 0
        for _ in range(30):
            for fam in self._families(rng):
                walked = list(fam.members())
                assert len(walked) == len(set(walked))
                full = fam.universe.full_mask
                members = cm.materialize(fam)
                assert members == [p for p in range(1, full + 1) if fam.contains(p)]
                assert members == sorted(PatternFamily.members(fam))
                for max_size in range(1, fam.universe.size + 1):
                    assert sorted(_connected_sets(fam._adj, fam.min_size, max_size)) == [
                        p for p in members if p.bit_count() <= max_size
                    ]
                for budget in range(1, len(members)):
                    with pytest.raises(cm.BudgetExceededError) as exc:
                        cm.materialize(fam, budget)
                    assert exc.value.partial == budget + 1
                assert cm.materialize(fam, len(members)) == members
                checked += 1
        assert checked > 100


class TestOracleClosure:
    def test_matches_projection_closure(self, five_context, five_family):
        members = cm.materialize(five_family)
        ident = cm.ExtensionalAbstraction.identity()
        for t in members:
            assert cm.oracle_closure(five_context, members, ident, t) == cm.support_closure(
                five_context, five_family, t
            )

    def test_matches_abstract_closure(self, five_context, five_family, pair_abstraction):
        members = cm.materialize(five_family)
        for t in members:
            assert cm.oracle_closure(
                five_context, members, pair_abstraction, t
            ) == cm.abstract_support_closure(five_context, five_family, pair_abstraction, t)

    def test_undefined_on_violating_family(self):
        u = cm.Universe(["a", "b", "c", "d"])
        members = [0, u.mask("ab"), u.mask("ac")]
        ctx = cm.ObjectContext(("o",), (u.mask("abcd"),), u)
        with pytest.raises(cm.ClosureUndefinedError) as exc:
            cm.oracle_closure(ctx, members, cm.ExtensionalAbstraction.identity(), 0)
        assert set(exc.value.maximals) == {u.mask("ab"), u.mask("ac")}

    def test_closure_laws_on_explicit_subconfluences(self):
        rng = random.Random(79)
        ident = cm.ExtensionalAbstraction.identity()
        for _ in range(10):
            fam = random_explicit_subconfluence(rng, n_items=4)
            ctx = build_context(
                fam.universe,
                {
                    f"o{i}": " ".join(
                        fam.universe.names_of(rng.randrange(fam.universe.full_mask + 1))
                    )
                    for i in range(1, rng.randint(2, 5))
                },
            )
            members = cm.materialize(fam)
            closure = {t: cm.oracle_closure(ctx, members, ident, t) for t in members}
            for t, c in closure.items():
                assert is_subset(t, c)
                assert closure[c] == c
            for t in members:
                for t2 in members:
                    if is_subset(t, t2):
                        assert is_subset(closure[t], closure[t2])


class TestOracleClosedSet:
    def test_wedge_closed_set(self, wedge_context, wedge_family, wedge_universe):
        u = wedge_universe
        members = cm.materialize(wedge_family)
        got = oracle_closed_set(wedge_context, members, cm.ExtensionalAbstraction.identity())
        assert got == {u.mask("abd"), u.mask("acd"), u.mask("abcd")}


class TestVerifyAll:
    def test_quad_instance_all_pass(self, quad_edge_family, quad_context):
        report = cm.verify_all(quad_context, quad_edge_family, seed=1)
        assert report.ok, report.first_counterexample()
        assert report.family_size == 14
        u = quad_edge_family.universe
        assert set(report.closed) == {u.mask(p) for p in ("a", "b", "abc", "abcd")}

    def test_wedge_instance_all_pass(self, wedge_context, wedge_family, wedge_universe):
        report = cm.verify_all(wedge_context, wedge_family, seed=2)
        assert report.ok, report.first_counterexample()
        u = wedge_universe
        assert set(report.closed) == {u.mask(p) for p in ("abd", "acd", "abcd")}

    def test_five_family_skips_miner(self, five_context, five_family):
        report = cm.verify_all(five_context, five_family, seed=3)
        assert report.checks["miner_matches_oracle"].passed is None
        others = {k: v for k, v in report.checks.items() if k != "miner_matches_oracle"}
        assert all(v.passed for v in others.values())

    def test_report_serialization(self, quad_edge_family, quad_context):
        report = cm.verify_all(quad_context, quad_edge_family)
        data = report.to_dict(quad_edge_family.universe, quad_context.objects)
        assert data["v"] == 1 and data["ok"] is True
        assert "a b c d" in data["closed"]

    def test_abstract_instance(self, quad_edge_family, quad_context, pair_abstraction):
        report = cm.verify_all(quad_context, quad_edge_family, pair_abstraction, seed=4)
        assert report.ok, report.first_counterexample()

    def test_reports_reproducible_for_a_seed(self, quad_edge_family, quad_context):
        u = quad_edge_family.universe
        one = cm.verify_all(quad_context, quad_edge_family, seed=12).to_dict(u, quad_context.objects)
        two = cm.verify_all(quad_context, quad_edge_family, seed=12).to_dict(u, quad_context.objects)
        assert one == two


class TestOracleCatchesContractViolations:
    """verify_all must flag a family whose projection breaks its contract."""

    def test_broken_projection_detected(self, five_universe):
        u = five_universe

        class BrokenProjection(cm.ExplicitFamily):
            def project(self, member, x):
                return member  # wrong: ignores everything above the base

        fam = BrokenProjection(
            [u.mask(p) for p in ("a", "b", "ab", "abc")], u
        )
        ctx = cm.ObjectContext(
            ("o1", "o2"), (u.mask("ab"), u.mask("abc")), u
        )
        report = cm.verify_all(ctx, fam, seed=0)
        assert not report.ok
        name, detail = report.first_counterexample()
        assert name and detail

    def test_broken_membership_detected(self, five_universe):
        u = five_universe

        class BrokenMembership(cm.ExplicitFamily):
            def contains(self, pattern):
                # drops a real member, so augmentation chains dead-end
                return pattern != u.mask("ab") and super().contains(pattern)

        fam = BrokenMembership([u.mask(p) for p in ("a", "b", "ab", "abc")], u)
        ctx = cm.ObjectContext(("o1",), (u.mask("abc"),), u)
        report = cm.verify_all(ctx, fam, seed=0)
        assert not report.ok


class TestFamilyPoset:
    def test_order_matches_inclusion(self, wedge_family):
        poset = family_poset(wedge_family.patterns)
        for i in range(poset.n):
            for j in range(poset.n):
                assert poset.leq(i, j) == is_subset(poset.ids[i], poset.ids[j])


class TestSubconfluenceCheck:
    def test_fast_witness_matches_all_members_loop(self):
        # random mask sets, the empty pattern in some; most are not subconfluences
        rng = random.Random(79)
        violations = 0
        for _ in range(3000):
            n_items = rng.randint(1, 5)
            members = {rng.randrange(1 << n_items) for _ in range(rng.randint(1, 10))}
            if rng.random() < 0.3:
                members.add(0)
            if rng.random() < 0.2:
                members.update(random_subconfluence_masks(rng, n_items))
            members = list(members)
            rng.shuffle(members)
            witness = subconfluence_violation(members)
            expected = _check_subconfluence(members)
            if witness is None:
                assert expected == CheckResult(True)
            else:
                assert expected == CheckResult(False, f"witness {witness!r}")
                violations += 1
        assert 500 < violations < 2500


class TestRandomGenerators:
    def test_subconfluence_masks_are_valid(self):
        rng = random.Random(83)
        for _ in range(30):
            members = random_subconfluence_masks(rng, 5)
            assert subconfluence_violation(members) is None

    def test_sublattice_masks_are_closed(self):
        rng = random.Random(89)
        host = powerset_lattice(5)
        for _ in range(20):
            mask = random_sublattice_mask(rng, host)
            elems = list(iter_indices(mask))
            for i in elems:
                for j in elems:
                    assert (mask >> host.meet_table[i][j]) & 1
                    assert (mask >> host.join_table[i][j]) & 1

    def test_random_graph_within_bounds(self):
        rng = random.Random(97)
        for _ in range(20):
            g = random_graph(rng, max_vertices=8)
            assert 2 <= len(g.vertices) <= 8
            assert g.edges
