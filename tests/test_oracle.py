"""Brute-force oracle: materialization, scan-based closures, closed-set
computation, the bundled verification report, and the tests' random generators."""

import random
import sys
from collections import Counter
from functools import partial

import pytest

import confmine as cm
import confmine.confluence
import confmine.oracle
from confmine.families import FamilyError, PatternFamily, _connected_sets, subconfluence_violation
from confmine.oracle import (
    CheckResult,
    _check_meet_closed_per_minimal,
    _check_subconfluence,
    _check_theorem_closed_set,
    _subsets_within,
    family_poset,
    oracle_closed_set,
)
from confmine.order import (
    OperatorClassification,
    OperatorMap,
    Verdict,
    closure_from_subset,
    meet_closed,
    powerset_lattice,
)
from confmine.patterns import is_subset, iter_indices, mask_of

from conftest import build_context
from randomized import (
    random_abstraction,
    random_context,
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

    def test_zero_budget_counts_the_first_member(self):
        fam = cm.KGapWordFamily(4, 1)
        with pytest.raises(cm.BudgetExceededError) as exc:
            cm.materialize(fam, budget=0)
        assert exc.value.partial == 1

    @pytest.mark.parametrize("budget", [-1, -2])
    def test_negative_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            cm.materialize(cm.KGapWordFamily(4, 1), budget=budget)

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
        # with a brute-force membership scan and, under every smaller budget,
        # raises at exactly budget + 1 members.
        rng = random.Random(53)
        checked = 0
        for _ in range(30):
            for fam in self._families(rng):
                walked = list(fam.members())
                assert len(walked) == len(set(walked))
                full = fam.universe.full_mask
                members = cm.materialize(fam)
                assert members == [p for p in range(1, full + 1) if fam.contains(p)]
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
        ident = cm.ExtensionalAbstraction()
        for t in members:
            assert cm.oracle_closure(five_context, members, ident, t) == cm.support_closure(
                five_context, five_family, t
            )

    def test_matches_abstract_closure(self, five_context, five_family, pair_abstraction):
        members = cm.materialize(five_family)
        for t in members:
            assert cm.oracle_closure(
                five_context, members, pair_abstraction, t
            ) == cm.closure(
                five_context, five_family, t, pair_abstraction.apply(cm.extension(five_context, t))
            )

    def test_rejects_non_member(self, five_context, five_family, five_universe):
        members = cm.materialize(five_family)
        outside = next(t for t in range(five_universe.full_mask + 1) if t not in members)
        ident = cm.ExtensionalAbstraction()
        with pytest.raises(ValueError, match="^pattern outside the family$"):
            cm.oracle_closure(five_context, members, ident, outside)

    def test_undefined_on_violating_family(self):
        u = cm.Universe(["a", "b", "c", "d"])
        members = [0, u.mask("ab"), u.mask("ac")]
        ctx = cm.ObjectContext(cm.Universe(("o",)), (u.mask("abcd"),), u)
        with pytest.raises(cm.ClosureUndefinedError) as exc:
            cm.oracle_closure(ctx, members, cm.ExtensionalAbstraction(), 0)
        assert set(exc.value.maximals) == {u.mask("ab"), u.mask("ac")}

    def test_closure_laws_on_explicit_subconfluences(self):
        rng = random.Random(79)
        ident = cm.ExtensionalAbstraction()
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
        got = oracle_closed_set(wedge_context, members, cm.ExtensionalAbstraction())
        assert got == {u.mask("abd"), u.mask("acd"), u.mask("abcd")}


def definition_closure(ctx, members, abstraction, t):
    """The maximal members above t sharing its abstract support, by scan of
    every object and member: ``(closure, None)`` or ``(None, maximals)``."""

    def supp(p):
        return abstraction.apply(
            sum(1 << o for o, d in enumerate(ctx.descriptions) if is_subset(p, d))
        )

    same = {u for u in members if is_subset(t, u) and supp(u) == supp(t)}
    maximals = {u for u in same if not any(u != v and is_subset(u, v) for v in same)}
    return (next(iter(maximals)), None) if len(maximals) == 1 else (None, maximals)


class TestOracleWrapperInputs:
    def test_any_order_and_repeats_give_the_definition(self):
        # Random mask sets, most of them not subconfluences, given sorted and
        # distinct, then shuffled with repeats: the same closures or the same
        # undefined-closure maximals, and the same closed set, as the definition.
        rng = random.Random(97)
        undefined = 0
        for _ in range(300):
            n_items = rng.randint(1, 5)
            u = cm.Universe(tuple("abcde"[:n_items]))
            distinct = sorted({rng.randrange(1 << n_items) for _ in range(rng.randint(1, 10))})
            repeated = distinct + [rng.choice(distinct) for _ in range(rng.randint(1, 5))]
            rng.shuffle(repeated)
            ctx = random_context(rng, u, max_objects=6)
            abstraction = random_abstraction(rng, len(ctx.descriptions))
            closed = {
                t
                for t in distinct
                if definition_closure(ctx, distinct, abstraction, t) == (t, None)
            }
            for members in (distinct, repeated):
                for t in distinct:
                    expected, maximals = definition_closure(ctx, distinct, abstraction, t)
                    if maximals is None:
                        assert cm.oracle_closure(ctx, members, abstraction, t) == expected
                    else:
                        with pytest.raises(cm.ClosureUndefinedError) as exc:
                            cm.oracle_closure(ctx, members, abstraction, t)
                        assert set(exc.value.maximals) == maximals
                        assert len(exc.value.maximals) == len(maximals)
                        undefined += 1
                assert oracle_closed_set(ctx, members, abstraction) == closed
        assert undefined > 50


class TestVerifyAll:
    def test_quad_instance_all_pass(self, quad_edge_family, quad_context):
        report = cm.verify_all(quad_context, quad_edge_family, seed=1)
        assert report.ok, report.checks
        assert report.family_size == 14
        u = quad_edge_family.universe
        assert set(report.closed) == {u.mask(p) for p in ("a", "b", "abc", "abcd")}

    def test_wedge_instance_all_pass(self, wedge_context, wedge_family, wedge_universe):
        report = cm.verify_all(wedge_context, wedge_family, seed=2)
        assert report.ok, report.checks
        u = wedge_universe
        assert set(report.closed) == {u.mask(p) for p in ("abd", "acd", "abcd")}

    def test_five_family_skips_miner(self, five_context, five_family):
        report = cm.verify_all(five_context, five_family, seed=3)
        assert report.checks["miner_matches_oracle"].passed is None
        others = {k: v for k, v in report.checks.items() if k != "miner_matches_oracle"}
        assert all(v.passed for v in others.values())

    def test_report_serialization(self, quad_edge_family, quad_context):
        report = cm.verify_all(quad_context, quad_edge_family)
        data = report.to_dict(quad_context)
        assert data["v"] == 1 and data["ok"] is True
        assert "a b c d" in data["closed"]

    def test_abstract_instance(self, quad_edge_family, quad_context, pair_abstraction):
        report = cm.verify_all(quad_context, quad_edge_family, pair_abstraction, seed=4)
        assert report.ok, report.checks

    def test_reports_reproducible_for_a_seed(self, quad_edge_family, quad_context):
        one = cm.verify_all(quad_context, quad_edge_family, seed=12).to_dict(quad_context)
        two = cm.verify_all(quad_context, quad_edge_family, seed=12).to_dict(quad_context)
        assert one == two

    def test_checks_the_confluence_once(self, quad_edge_family, quad_context, monkeypatch):
        # The confluence test lives in one builder, which both is_confluence
        # and ExplicitConfluence call.
        posets, checked = [], []
        family_poset_ = confmine.oracle.family_poset
        local_bounds_ = confmine.confluence._local_bounds

        def recording_family_poset(members):
            posets.append(family_poset_(members))
            return posets[-1]

        def counting_local_bounds(poset):
            checked.append(poset)
            return local_bounds_(poset)

        monkeypatch.setattr(confmine.oracle, "family_poset", recording_family_poset)
        monkeypatch.setattr(confmine.confluence, "_local_bounds", counting_local_bounds)
        report = cm.verify_all(quad_context, quad_edge_family, seed=1)
        assert report.ok, report.checks
        assert len(posets) == 1
        assert sum(p is posets[0] for p in checked) == 1

    def test_checks_local_meet_closure_once(self, quad_edge_family, quad_context, monkeypatch):
        calls = []
        original = confmine.confluence.is_closed_under_local_meet

        def counting_check(conf, members):
            calls.append(members)
            return original(conf, members)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "confmine" and vars(module).get(
                "is_closed_under_local_meet"
            ) is original:
                monkeypatch.setattr(module, "is_closed_under_local_meet", counting_check)
        report = cm.verify_all(quad_context, quad_edge_family, seed=1)
        assert report.ok, report.checks
        assert len(calls) == 1

    def test_local_meets_tried_once(self, monkeypatch):
        # Both local-meet checks read one verdict: verify_all makes exactly the
        # local_meet calls of a single is_closed_under_local_meet pass.
        rng = random.Random(27)
        fam = cm.ConnectedVertexFamily(random_graph(rng, max_vertices=7, edge_prob=0.5))
        ctx = random_context(rng, fam.universe, max_objects=10)
        calls = []
        local_meet_ = cm.ExplicitConfluence.local_meet

        def counting_local_meet(conf, t, x, y):
            calls.append((t, x, y))
            return local_meet_(conf, t, x, y)

        monkeypatch.setattr(cm.ExplicitConfluence, "local_meet", counting_local_meet)
        report = cm.verify_all(ctx, fam, seed=3)
        assert report.ok, report.checks
        in_report = len(calls)
        poset = family_poset(cm.materialize(fam))
        closed = mask_of(poset.index(t) for t in report.closed)
        assert cm.is_closed_under_local_meet(cm.ExplicitConfluence(poset), closed)
        single_pass = len(calls) - in_report
        assert in_report == single_pass > 100

    def test_one_closure_per_member_and_route(self, monkeypatch):
        # The projection route is read by three checks and the scan route by
        # two; each must still run once per member.
        rng = random.Random(17)
        fam = cm.ConnectedVertexFamily(random_graph(rng, max_vertices=7, edge_prob=0.5))
        ctx = random_context(rng, fam.universe, max_objects=10)
        members = cm.materialize(fam)
        assert 20 <= len(members) <= 80
        projected, scanned = Counter(), Counter()
        projection_ = confmine.oracle.closure
        scan_ = confmine.oracle._scan_closure

        def counting_projection(ctx, fam, pattern, support):
            projected[pattern] += 1
            return projection_(ctx, fam, pattern, support)

        def counting_scan(poset, supports, pattern):
            scanned[pattern] += 1
            return scan_(poset, supports, pattern)

        monkeypatch.setattr(confmine.oracle, "closure", counting_projection)
        monkeypatch.setattr(confmine.oracle, "_scan_closure", counting_scan)
        report = cm.verify_all(ctx, fam, cm.ExtensionalAbstraction.frequency(2), seed=5)
        assert report.ok, report.checks
        assert projected == scanned == Counter(members)

    def test_closed_set_not_locally_meet_closed_detail(self):
        # a, b below abc, abd below abcd: the local top abcd is left out
        a, b, abc, abd, abcd = 0b1, 0b10, 0b111, 0b1011, 0b1111
        poset = family_poset([a, b, abc, abd, abcd])
        conf = cm.ExplicitConfluence(poset)
        closed = mask_of(poset.index(t) for t in [a, abc])
        result = _check_theorem_closed_set(
            poset, closed, None, partial(cm.is_closed_under_local_meet, conf, closed)
        )
        assert result == CheckResult(False, "closed set not locally meet closed: (1, None)")

    def test_closed_set_not_meet_closed_above_a_minimal_detail(self):
        # minimals a and b; above a the lattice a < ab, ac < abc
        a, b, ab, ac, abc = 0b1, 0b10, 0b11, 0b101, 0b111
        poset = family_poset([a, b, ab, ac, abc])
        conf = cm.ExplicitConfluence(poset)

        def check(*closed):
            mask = mask_of(poset.index(t) for t in closed)
            verdict = partial(cm.is_closed_under_local_meet, conf, mask)
            return _check_meet_closed_per_minimal(conf, poset, mask, verdict)

        no_top = check(a, ab, ac)
        assert no_top == CheckResult(False, "closed set above 1 not meet closed: 7")
        escaping = check(ab, ac, abc)
        assert escaping == CheckResult(False, "closed set above 1 not meet closed: (3, 5)")
        assert check(a, b, ab, abc) == CheckResult(True)

    def test_per_minimal_check_matches_restricted_subposets(self):
        # The check reads closure existence above each minimal off the full
        # order.  Against the definition, a closure_from_subset on each
        # minimal's own up set, it must give the same report, failures included.
        def by_restriction(conf, poset, closed):
            closed_mask = mask_of(poset.index(t) for t in closed)
            for m in conf.minimal_indices:
                up = poset.up[m]
                verdict = meet_closed(
                    poset.ids, closed_mask & up, conf.local_tops[m], partial(conf.local_meet, m)
                )
                sub, old = poset.restrict(up)
                c_mask = mask_of(k for k, o in enumerate(old) if (closed_mask >> o) & 1)
                if bool(verdict) != (closure_from_subset(sub, c_mask)[0] is not None):
                    return CheckResult(False, f"disagree above {poset.ids[m]}")
                if not verdict:
                    return CheckResult(
                        False,
                        f"closed set above {poset.ids[m]} not meet closed: {verdict.witness!r}",
                    )
            return CheckResult(True)

        rng = random.Random(47)
        outcomes = Counter()
        for _ in range(400):
            poset = family_poset(random_subconfluence_masks(rng, 5))
            conf = cm.ExplicitConfluence(poset)
            closed = [t for t in poset.ids if rng.random() < 0.7]
            mask = mask_of(poset.index(t) for t in closed)
            verdict = partial(cm.is_closed_under_local_meet, conf, mask)
            result = _check_meet_closed_per_minimal(conf, poset, mask, verdict)
            assert result == by_restriction(conf, poset, closed)
            outcomes[result.passed] += 1
        assert outcomes[True] > 50 and outcomes[False] > 50

    def test_non_confluence_reported_with_its_witness(self, five_universe):
        u = five_universe

        class NotAConfluence(cm.ExplicitFamily):
            def members(self):
                # a's up set {a, ab, ac} has no greatest element
                return iter([u.mask("a"), u.mask("ab"), u.mask("ac")])

        fam = NotAConfluence([u.mask("a")], u)
        verdict = cm.is_confluence(family_poset(cm.materialize(fam)))
        assert not verdict
        outside = "check raised ValueError: projection base must belong to the family"
        undefined = "support closure undefined at 1: maximal candidates (3, 5)"
        # Under "ab" the closure of a is ab; under "abc" a, ab and ac share
        # their support, so the scan route has two maximal candidates above a.
        expected = {
            "ab": (
                CheckResult(True),
                CheckResult(False, "projection route 1 != scan route 3 at 1"),
                CheckResult(False, "extent image mismatch: left-only (0,), right-only ()"),
            ),
            "abc": (
                CheckResult(False, undefined),
                CheckResult(False, f"check raised ClosureUndefinedError: {undefined}"),
                CheckResult(True),
            ),
        }
        for description, (total, agreement, extents) in expected.items():
            ctx = cm.ObjectContext(cm.Universe(("o1",)), (u.mask(description),), u)
            report = cm.verify_all(ctx, fam, seed=0)
            assert report.checks == {
                "subconfluence": CheckResult(False, "witness (1, 3, 5)"),
                "closure_exists_everywhere": total,
                "confluence_order": CheckResult(False, f"witness {verdict.witness!r}"),
                "projection_coherence": CheckResult(False, outside),
                "support_closure_laws": CheckResult(False, outside),
                "oracle_agrees_with_projection": agreement,
                "extent_decomposition": extents,
                "local_closure_laws": CheckResult(True),
                "miner_matches_oracle": CheckResult(False, "miner [1] != oracle [3, 5]"),
            }
            assert not report.ok


class TestOracleCatchesContractViolations:
    """verify_all must flag a family whose projection breaks its contract."""

    def test_broken_projection_detected(self, five_universe):
        u = five_universe

        class BrokenProjection(cm.ExplicitFamily):
            def _project(self, member, x):
                return member  # wrong: ignores everything above the base

        fam = BrokenProjection(
            [u.mask(p) for p in ("a", "b", "ab", "abc")], u
        )
        ctx = cm.ObjectContext(
            cm.Universe(("o1", "o2")), (u.mask("ab"), u.mask("abc")), u
        )
        report = cm.verify_all(ctx, fam, seed=0)
        assert report.checks == {
            "subconfluence": CheckResult(True),
            "closure_exists_everywhere": CheckResult(True),
            "confluence_order": CheckResult(True),
            "local_join_is_union": CheckResult(True),
            "closed_set_locally_meet_closed": CheckResult(
                False, "reconstructed closure disagrees with support closure at 1"
            ),
            "meet_closed_per_minimal": CheckResult(True),
            "projection_coherence": CheckResult(False, "projections at 7 and 3 disagree on 15"),
            "support_closure_laws": CheckResult(True),
            "oracle_agrees_with_projection": CheckResult(
                False, "projection route 1 != scan route 3 at 1"
            ),
            "extent_decomposition": CheckResult(
                False, "extent image mismatch: left-only (2,), right-only ()"
            ),
            "local_closure_laws": CheckResult(True),
            "miner_matches_oracle": CheckResult(False, "miner [1, 2, 3, 7] != oracle [3, 7]"),
        }
        first_failed = next(name for name, c in report.checks.items() if c.passed is False)
        assert first_failed == "closed_set_locally_meet_closed"

    def test_broken_membership_detected(self, five_universe):
        u = five_universe

        class BrokenMembership(cm.ExplicitFamily):
            def contains(self, pattern):
                # drops a real member, so augmentation chains dead-end
                return pattern != u.mask("ab") and super().contains(pattern)

        fam = BrokenMembership([u.mask(p) for p in ("a", "b", "ab", "abc")], u)
        ctx = cm.ObjectContext(cm.Universe(("o1",)), (u.mask("abc"),), u)
        report = cm.verify_all(ctx, fam, seed=0)
        # every check that reaches the projection route at ab raises there
        raised = CheckResult(
            False, "check raised ValueError: projection base must belong to the family"
        )
        assert report.checks == {
            "subconfluence": CheckResult(True),
            "closure_exists_everywhere": CheckResult(True),
            "confluence_order": CheckResult(True),
            "local_join_is_union": CheckResult(True),
            "closed_set_locally_meet_closed": raised,
            "meet_closed_per_minimal": CheckResult(True),
            "projection_coherence": raised,
            "support_closure_laws": raised,
            "oracle_agrees_with_projection": raised,
            "extent_decomposition": CheckResult(True),
            "local_closure_laws": CheckResult(True),
            "miner_matches_oracle": CheckResult(True),
        }
        assert not report.ok


class _ConfluenceNotSubconfluence(PatternFamily):
    """{a, ab, ac, abcd} over abcd: one minimal, whose up set is a lattice with
    join abcd, so a confluence; but ab | ac = abc is missing, so no subconfluence."""

    def __init__(self):
        self.universe = cm.Universe("abcd")
        self._members = tuple(self.universe.mask(p) for p in ("a", "ab", "ac", "abcd"))
        self._minimals = self._members[:1]

    def contains(self, pattern):
        return pattern in self._members

    def members(self):
        return iter(self._members)

    def _project(self, member, x):
        inside = [t for t in self._members if is_subset(member, t) and is_subset(t, x)]
        return max(inside, key=int.bit_count)


def _chain_with_projection(project, *descriptions):
    """The chain a < ab < abc over abcd, with a planted ``_project``, and one object
    per description.  Each planted projection contains its base; the one that leaves
    x is refused by ``PatternFamily.project``, the others pass it."""
    u = cm.Universe("abcd")
    fam = type("PlantedChain", (cm.ExplicitFamily,), {"_project": project})(
        [u.mask(p) for p in ("a", "ab", "abc")], u
    )
    names = tuple(f"o{i}" for i in range(1, len(descriptions) + 1))
    return cm.ObjectContext(cm.Universe(names), tuple(u.mask(d) for d in descriptions), u), fam


def _above(fam, member, x):
    return [t for t in fam.patterns if is_subset(member, t) and is_subset(t, x)]


def _first_step(fam, member, x):
    # the least member strictly above the base inside x, not the greatest one
    steps = [t for t in _above(fam, member, x) if t != member]
    return min(steps) if steps else member


def _top_ignoring_x(fam, member, x):
    # the greatest member above the base, whether or not x covers it
    return max(t for t in fam.patterns if is_subset(member, t))


def _one_below_greatest(fam, member, x):
    # the member just below the greatest one inside x
    inside = _above(fam, member, x)
    return sorted(inside)[-2] if len(inside) > 1 else member


def _base_at_full(fam, member, x):
    # the greatest member inside x, except the base itself when x is everything
    return member if x == fam.universe.full_mask else max(_above(fam, member, x))


class TestOracleReportsEachFault:
    """Each check's FAIL branch: one planted fault per check, and the report is not ok."""

    @staticmethod
    def assert_fails(report, name, prefix):
        check = report.checks[name]
        assert check.passed is False, (name, check)
        assert check.detail.startswith(prefix), check.detail
        assert report.ok is False

    def test_confluence_whose_local_join_is_no_union(self):
        fam = _ConfluenceNotSubconfluence()
        u = fam.universe
        report = cm.verify_all(cm.ObjectContext(cm.Universe(("o1",)), (u.mask("abcd"),), u), fam)
        assert report.checks["confluence_order"] == CheckResult(True)
        self.assert_fails(report, "local_join_is_union", "local join of 3 and 5 is not their union")

    @pytest.mark.parametrize(
        "project, descriptions, name, prefix",
        [
            (_first_step, ("b",), "support_closure_laws", "support closure violates idempotent"),
            (
                _top_ignoring_x, ("ab",), "local_closure_laws",
                "check raised ValueError: family projection leaves its argument",
            ),
            (_one_below_greatest, ("ab", "ac"), "local_closure_laws", "local closure not idempotent"),
            (_base_at_full, ("abc", "ab"), "local_closure_laws", "local closure not monotone"),
        ],
        ids=["first-step", "top-ignoring-x", "one-below-greatest", "base-at-full"],
    )
    def test_planted_projection(self, project, descriptions, name, prefix):
        ctx, fam = _chain_with_projection(project, *descriptions)
        self.assert_fails(cm.verify_all(ctx, fam), name, prefix)

    def test_miner_refuses_a_projection_outside_its_argument(self):
        # without the check the miner emits only abc and no error
        ctx, fam = _chain_with_projection(_top_ignoring_x, "ab")
        with pytest.raises(ValueError, match="projection leaves its argument"):
            list(cm.mine(cm.MinerConfig(fam, ctx)))

    # The theorems below hold for every family, so only a broken order-core
    # answer, patched into the oracle's namespace, can make their checks fail.

    def test_reconstructed_operator_not_a_closure(self, quad_edge_family, quad_context, monkeypatch):
        def neither(op):
            return OperatorClassification("neither", False, False, "idempotent", op.domain.ids[0])

        monkeypatch.setattr(confmine.oracle, "classify_operator", neither)
        report = cm.verify_all(quad_context, quad_edge_family)
        self.assert_fails(report, "closed_set_locally_meet_closed", "reconstructed operator is neither")
        self.assert_fails(report, "support_closure_laws", "support closure violates idempotent")

    def test_reconstructed_range_differs(self, quad_edge_family, quad_context, monkeypatch):
        def identity(poset, members):
            return OperatorMap(poset, list(range(poset.n))), None

        monkeypatch.setattr(confmine.oracle, "closure_from_subset", identity)
        report = cm.verify_all(quad_context, quad_edge_family)
        self.assert_fails(
            report, "closed_set_locally_meet_closed", "reconstructed closure range differs"
        )

    def test_closed_set_not_a_confluence(self, quad_edge_family, quad_context, monkeypatch):
        monkeypatch.setattr(confmine.oracle, "is_confluence", lambda poset: Verdict(False, "planted"))
        report = cm.verify_all(quad_context, quad_edge_family)
        self.assert_fails(
            report, "closed_set_locally_meet_closed", "closed set is not a confluence: 'planted'"
        )

    def test_meet_verdict_disagrees_with_closure_existence(
        self, quad_edge_family, quad_context, monkeypatch
    ):
        def fails_at_first_minimal(conf, members):
            return Verdict(False, (conf.carrier.ids[conf.minimal_indices[0]], None))

        monkeypatch.setattr(confmine.oracle, "is_closed_under_local_meet", fails_at_first_minimal)
        report = cm.verify_all(quad_context, quad_edge_family)
        self.assert_fails(
            report, "meet_closed_per_minimal",
            "meet-closedness and subset-closure existence disagree above 1",
        )

    def test_miner_repeats_a_concept(self, quad_edge_family, quad_context, monkeypatch):
        mine = confmine.oracle.mine
        monkeypatch.setattr(confmine.oracle, "mine", lambda cfg: [*mine(cfg), *mine(cfg)])
        report = cm.verify_all(quad_context, quad_edge_family)
        self.assert_fails(report, "miner_matches_oracle", "miner emitted a duplicate intent")


def test_subsets_within_samples_cap_subsets_of_a_wide_mask():
    """A mask with more subsets than the cap gets a seeded sample of exactly cap of
    them, as the local closure laws read for an extent of 7 or more objects."""
    mask = mask_of([0, 2, 3, 5, 6, 7, 9, 11, 12, 13])  # 10 bits, 1,024 subsets
    subsets = _subsets_within(mask, random.Random(7), cap=64)
    assert len(set(subsets)) == len(subsets) == 64
    assert subsets == sorted(subsets)
    assert all(is_subset(x, mask) for x in subsets)
    assert subsets[0] == 0 and subsets[-1] == mask
    assert _subsets_within(mask, random.Random(7), cap=64) == subsets


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
        hosts = {n: powerset_lattice(n) for n in range(1, 6)}
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
            expected = _check_subconfluence(family_poset(members))
            # the lattice check: ids are the masks, index order is mask order
            verdict = cm.is_subconfluence(hosts[n_items], mask_of(members))
            assert (verdict.ok, verdict.witness) == (witness is None, witness)
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
                    assert (mask >> host.meet(i, j)) & 1
                    assert (mask >> host.join(i, j)) & 1

    def test_random_graph_within_bounds(self):
        rng = random.Random(97)
        for _ in range(20):
            g = random_graph(rng, max_vertices=8)
            assert 2 <= len(g.vertices) <= 8
            assert g.edges
