"""Family constructions: connected vertex/edge subsets, bounded-gap words,
explicit families, strong accessibility, and the file formats."""

import random

import pytest

import confmine as cm
from confmine.families import (
    ExplicitFamily,
    FamilyError,
    ParseError,
    _connected_sets,
    explicit_family_from_names,
    is_strongly_accessible,
    load_family_lines,
    load_graph,
    subconfluence_violation,
)
from confmine.oracle import materialize
from confmine.patterns import content_lines, is_subset, iter_indices, minimal_masks

from randomized import random_explicit_subconfluence, random_graph, random_subconfluence_masks


def path_graph(*names: str) -> cm.GraphSpec:
    edges = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    return cm.GraphSpec.build(tuple(names), edges)


class TestUniverse:
    def test_round_trip(self):
        u = cm.Universe(["x", "y", "z"])
        assert u.mask(["z", "x"]) == 0b101
        assert u.names_of(0b101) == ("x", "z")
        assert u.format(0) == "{}"
        assert u.full_mask == 0b111

    def test_set_algebra_matches_bit_operations(self):
        u = cm.Universe(list("abcde"))
        rng = random.Random(1)
        for _ in range(100):
            x, y = rng.randrange(32), rng.randrange(32)
            sx, sy = set(u.names_of(x)), set(u.names_of(y))
            assert set(u.names_of(x | y)) == sx | sy
            assert set(u.names_of(x & y)) == sx & sy
            assert is_subset(x, y) == (sx <= sy)

    def test_rejects_duplicates_and_unknowns(self):
        with pytest.raises(ValueError, match="duplicate"):
            cm.Universe(["a", "a"])
        with pytest.raises(KeyError) as unknown:
            cm.Universe(["a"]).mask(["z"])
        assert unknown.value.args == ("z",)

    def test_mask_names_the_unknown_item(self):
        u = cm.Universe(["a", "b"])
        with pytest.raises(KeyError) as by_mask:
            u.mask(["b", "z", "a"])
        assert by_mask.value.args == ("z",)


class TestMinimalMasks:
    def test_empty_input(self):
        assert minimal_masks([]) == ()

    def test_duplicates_kept_once(self):
        assert minimal_masks([0b110, 0b011, 0b110, 0b011]) == (0b011, 0b110)

    def test_incomparable_masks_of_equal_size(self):
        assert minimal_masks([0b110, 0b101, 0b011]) == (0b011, 0b101, 0b110)

    def test_chain_keeps_its_bottom(self):
        assert minimal_masks([0b1111, 0b0011, 0b0111, 0b0001]) == (0b0001,)
        assert minimal_masks([0b101, 0]) == (0,)

    def test_matches_pairwise_scan(self):
        rng = random.Random(67)
        for _ in range(300):
            masks = [rng.randrange(64) for _ in range(rng.randint(1, 12))]
            expected = sorted(
                {p for p in masks if not any(q != p and is_subset(q, p) for q in masks)}
            )
            assert minimal_masks(masks) == tuple(expected)

    def test_matches_a_scan_without_the_last_blocking_minimum(self):
        # The scan minimal_masks ran before it tried the last blocking minimum
        # first; unsorted input, duplicates and the empty mask included.
        def scan(masks):
            minima = []
            for m in sorted(masks):
                if not any(is_subset(k, m) for k in minima):
                    minima.append(m)
            return tuple(minima)

        rng = random.Random(71)
        for _ in range(500):
            width = rng.randint(1, 9)
            masks = [rng.randrange(1 << width) for _ in range(rng.randint(0, 30))]
            masks += rng.sample(masks, len(masks) // 3)  # duplicates
            if rng.random() < 0.2:
                masks.append(0)
            rng.shuffle(masks)
            assert minimal_masks(masks) == scan(masks)


class TestConnectedSets:
    @staticmethod
    def _brute_force(adjacency, min_size, max_size):
        n = len(adjacency)
        top = n if max_size is None else max_size
        found = []
        for s in range(1, 1 << n):
            if not min_size <= s.bit_count() <= top:
                continue
            low = s & -s
            comp, frontier = low, low
            while frontier:  # breadth-first growth inside s, written out here
                grown = 0
                for i in iter_indices(frontier):
                    grown |= adjacency[i]
                frontier = grown & s & ~comp
                comp |= frontier
            if comp == s:
                found.append(s)
        return found

    def test_agrees_with_brute_force_below_at_and_above_the_minimum(self):
        # Leaves are yielded without a frame, at the size limit and where no
        # candidate is left; a limit below min_size, 0 included, yields nothing.
        rng = random.Random(59)
        limits = {"below": 0, "equal": 0, "above": 0, "unbounded": 0}
        for _ in range(60):
            n = rng.randint(1, 9)
            p = rng.choice([0.15, 0.3, 0.6])
            adjacency = [0] * n
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < p:
                        adjacency[a] |= 1 << b
                        adjacency[b] |= 1 << a
            for min_size in range(1, n + 1):
                for max_size in [None, *range(n + 1)]:
                    walked = list(_connected_sets(adjacency, min_size, max_size))
                    assert len(walked) == len(set(walked))
                    assert sorted(walked) == self._brute_force(adjacency, min_size, max_size)
                    if max_size is None:
                        limits["unbounded"] += 1
                    elif max_size < min_size:
                        assert walked == []
                        limits["below"] += 1
                    else:
                        limits["equal" if max_size == min_size else "above"] += 1
        assert min(limits.values()) >= 60


class TestGraphSpec:
    def test_rejects_self_loop(self):
        with pytest.raises(FamilyError, match="self-loop"):
            cm.GraphSpec(("x",), ((0, 0),), ("e0",))

    def test_rejects_unknown_vertex(self):
        with pytest.raises(FamilyError, match="unknown vertex"):
            cm.GraphSpec.build(("x", "y"), [("x", "z")])

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(FamilyError) as exc:
            cm.GraphSpec(("x", "y"), ((0, 1),), ())
        assert str(exc.value) == "edge label count does not match edge count"

    def test_rejects_endpoint_out_of_range(self):
        with pytest.raises(FamilyError) as exc:
            cm.GraphSpec(("x", "y"), ((0, 2),), ("e0",))
        assert str(exc.value) == "edge endpoint out of range"

    def test_default_edge_labels(self):
        g = cm.GraphSpec.build(("x", "y"), [("x", "y")])
        assert g.edge_labels == ("x-y",)


class TestConnectedVertexFamily:
    @pytest.fixture
    def path(self):
        return cm.ConnectedVertexFamily(path_graph("a", "b", "c", "d"))

    def test_membership(self, path):
        u = path.universe
        assert not path.contains(u.mask("ac"))
        assert path.contains(u.mask("abc"))
        assert not path.contains(0)

    def test_project_component(self, path):
        u = path.universe
        assert path.project(u.mask("a"), u.mask("abd")) == u.mask("ab")

    def test_minimals_are_singletons(self, path):
        assert path.minimals() == tuple(1 << v for v in range(4))

    def test_min_size_bounds(self):
        with pytest.raises(FamilyError):
            cm.ConnectedVertexFamily(path_graph("a", "b"), min_size=0)
        with pytest.raises(FamilyError, match="empty family"):
            cm.ConnectedVertexFamily(path_graph("a", "b"), min_size=3)

    def test_min_size_two_minimals(self):
        fam = cm.ConnectedVertexFamily(path_graph("a", "b", "c", "d"), min_size=2)
        u = fam.universe
        assert set(fam.minimals()) == {u.mask("ab"), u.mask("bc"), u.mask("cd")}
        assert not fam.contains(u.mask("b"))
        assert fam.contains(u.mask("bcd"))

    def test_augmentations_match_membership_scan(self, path):
        u = path.universe
        p = u.mask("bc")
        assert path.augmentations(p) == [
            e for e in range(4) if not (p >> e) & 1 and path.contains(p | 1 << e)
        ]


class TestConnectedEdgeFamily:
    def test_quad_membership(self, quad_edge_family):
        u = quad_edge_family.universe
        for pat in ("a", "b", "abc", "abd", "abcd"):
            assert quad_edge_family.contains(u.mask(pat))
        assert not quad_edge_family.contains(u.mask("ab"))
        assert quad_edge_family.contains(u.mask("c"))  # a single edge is connected

    def test_project_full_graph(self, quad_edge_family):
        u = quad_edge_family.universe
        assert quad_edge_family.project(u.mask("a"), u.mask("abcd")) == u.mask("abcd")
        assert quad_edge_family.project(u.mask("a"), u.mask("ab")) == u.mask("a")

    def test_minimals_are_single_edges(self, quad_edge_family):
        assert quad_edge_family.minimals() == tuple(1 << e for e in range(4))

    def test_rejects_edgeless_graph(self):
        with pytest.raises(FamilyError, match="no edges"):
            cm.ConnectedEdgeFamily(cm.GraphSpec(("x", "y"), (), ()))

    def test_rejects_duplicate_labels(self):
        # labels are items only here: the graph itself and its vertex family accept them
        graph = cm.GraphSpec.build(
            ("x", "y", "z"), [("x", "y", "e"), ("y", "z", "e"), ("x", "z", "f")]
        )
        assert cm.ConnectedVertexFamily(graph).universe.names == ("x", "y", "z")
        with pytest.raises(FamilyError) as exc:
            cm.ConnectedEdgeFamily(graph)
        assert str(exc.value) == "duplicate edge labels: e"


class TestKGapWordFamily:
    def test_gap_two_membership(self):
        fam = cm.KGapWordFamily(5, 2)
        u = fam.universe
        assert fam.contains(u.mask(["a1", "a3", "a4"]))

    def test_gap_one_rejects_distance_two(self):
        fam = cm.KGapWordFamily(5, 1)
        u = fam.universe
        assert not fam.contains(u.mask(["a1", "a3"]))

    def test_contiguous_projection(self):
        fam = cm.KGapWordFamily(5, 1)
        u = fam.universe
        got = fam.project(u.mask(["a3"]), u.mask(["a1", "a3", "a4", "a5"]))
        assert got == u.mask(["a3", "a4", "a5"])

    def test_parameter_validation(self):
        with pytest.raises(FamilyError):
            cm.KGapWordFamily(0, 1)
        with pytest.raises(FamilyError):
            cm.KGapWordFamily(3, 0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_members_are_the_bounded_gap_words(self, n, k):
        def gaps_at_most_k(mask):
            positions = [i for i in range(n) if mask >> i & 1]
            return all(b - a <= k for a, b in zip(positions, positions[1:]))

        words = {m for m in range(1, 1 << n) if gaps_at_most_k(m)}
        assert set(materialize(cm.KGapWordFamily(n, k))) == words


class TestExplicitFamily:
    def test_minimals(self, wedge_family, wedge_universe):
        u = wedge_universe
        assert set(wedge_family.minimals()) == {u.mask("ab"), u.mask("ac")}

    def test_rejects_non_subconfluence(self):
        u = cm.Universe(["a", "b", "c"])
        with pytest.raises(cm.NotSubconfluenceError) as exc:
            ExplicitFamily([0, u.mask("ab"), u.mask("ac")], u)
        assert exc.value.witness == (0, u.mask("ab"), u.mask("ac"))

    def test_non_subconfluence_message_names_the_triple(self):
        u = cm.Universe(["a", "b", "c"])
        with pytest.raises(cm.NotSubconfluenceError) as exc:
            ExplicitFamily([0, u.mask("ab"), u.mask("ac")], u)
        assert str(exc.value) == (
            "not a subconfluence: ({}, a b, a c) share a member below but their union a b c is missing"
        )

    def test_rejects_pattern_outside_universe(self):
        u = cm.Universe(["a", "b"])
        with pytest.raises(FamilyError) as exc:
            ExplicitFamily([u.mask("a"), 0b100], u)
        assert str(exc.value) == "pattern uses items outside the universe"

    def test_singleton_family(self):
        u = cm.Universe(["a", "b"])
        fam = ExplicitFamily([u.mask("ab")], u)
        assert fam.minimals() == (u.mask("ab"),)
        assert fam.project(u.mask("ab"), u.full_mask) == u.mask("ab")

    def test_project_is_greatest_member(self, wedge_family, wedge_universe):
        u = wedge_universe
        assert wedge_family.project(u.mask("ab"), u.mask("abd")) == u.mask("abd")
        assert wedge_family.project(u.mask("ab"), u.mask("abcde")) == u.mask("abcd")

    def test_universe_inference_with_context_items(self):
        fam = explicit_family_from_names([("a", "b"), ("a", "c")], extra_items=["e", "a"])
        assert fam.universe.names == ("a", "b", "c", "e")


def _contract_case(kind):
    """(family, a non-member, a member) of one family kind."""
    path = path_graph("a", "b", "c", "d")
    if kind == "vertex":
        fam = cm.ConnectedVertexFamily(path)
        return fam, fam.universe.mask("ac"), fam.universe.mask("ab")
    if kind == "vertex-min-size-2":
        fam = cm.ConnectedVertexFamily(path, min_size=2)
        return fam, fam.universe.mask("a"), fam.universe.mask("bc")
    if kind == "edge":
        fam = cm.ConnectedEdgeFamily(path)
        return fam, fam.universe.mask(["a-b", "c-d"]), fam.universe.mask(["a-b", "b-c"])
    if kind == "kgap":
        fam = cm.KGapWordFamily(5, 1)
        return fam, fam.universe.mask(["a1", "a3"]), fam.universe.mask(["a2", "a3"])
    fam = explicit_family_from_names([("a", "b"), ("a", "c"), ("a", "b", "c")])
    return fam, fam.universe.mask("a"), fam.universe.mask("ab")


class _BaseDroppingFamily(ExplicitFamily):
    """Breaks the projection contract: the result leaves out the base's least item."""

    def _project(self, member, x):
        return super()._project(member, x) & ~(member & -member)


class TestProjectionContract:
    """``PatternFamily.project`` checks its arguments and its result once, for
    every family kind; families implement only ``_project``."""

    KINDS = ("vertex", "vertex-min-size-2", "edge", "kgap", "explicit")

    @pytest.mark.parametrize("kind", KINDS)
    def test_rejects_non_member_base(self, kind):
        fam, outside, _ = _contract_case(kind)
        assert not fam.contains(outside)
        with pytest.raises(ValueError, match="^projection base must belong to the family$"):
            fam.project(outside, fam.universe.full_mask)

    @pytest.mark.parametrize("kind", KINDS)
    def test_rejects_argument_missing_a_base_item(self, kind):
        fam, _, member = _contract_case(kind)
        x = fam.universe.full_mask & ~(member & -member)
        with pytest.raises(ValueError, match="^projection argument must contain the base$"):
            fam.project(member, x)

    def test_non_extensive_projection_rejected_on_every_path(self):
        u = cm.Universe(["a", "b", "c"])
        fam = _BaseDroppingFamily([u.mask("ab"), u.mask("abc")], u)
        ctx = cm.ObjectContext(cm.Universe(("o1",)), (u.mask("abc"),), u)
        message = "^family projection is not extensive; the family violates its contract$"
        with pytest.raises(ValueError, match=message):
            fam.project(u.mask("ab"), u.mask("abc"))
        with pytest.raises(ValueError, match=message):
            cm.support_closure(ctx, fam, u.mask("ab"))
        with pytest.raises(ValueError, match=message):
            list(cm.mine_trace(cm.MinerConfig(family=fam, context=ctx)))


class TestStrongAccessibility:
    def test_wedge_family_accessible(self, wedge_family):
        assert is_strongly_accessible(wedge_family.patterns)

    def test_gap_pair_witness(self):
        u = cm.Universe(["a", "b", "c"])
        fam = ExplicitFamily([u.mask("a"), u.mask("abc")], u)
        verdict = is_strongly_accessible(fam.patterns)
        assert not verdict
        assert verdict.witness == (u.mask("a"), u.mask("abc"))

    def test_five_member_family_not_accessible(self, five_family):
        assert not is_strongly_accessible(five_family.patterns)

    def test_connected_vertex_families_accessible(self):
        rng = random.Random(7)
        for _ in range(10):
            g = random_graph(rng, max_vertices=6)
            fam = cm.ConnectedVertexFamily(g)
            assert is_strongly_accessible(materialize(fam))

    def test_min_size_families_accessible(self):
        fam = cm.ConnectedVertexFamily(path_graph("a", "b", "c", "d", "e"), min_size=2)
        assert is_strongly_accessible(materialize(fam))

    def test_family_answer_matches_definition(self):
        # Each family's own answer is the pair loop over its members, verdict
        # and witness both; the explicit ones are often not strongly accessible.
        rng = random.Random(43)
        u = cm.Universe(["a", "b", "c", "d", "e"])
        explicit_verdicts = []
        for _ in range(40):
            g = random_graph(rng, max_vertices=6)
            families = [cm.KGapWordFamily(rng.randint(2, 6), rng.randint(1, 3))]
            for min_size in (1, 2, 3):
                try:
                    families.append(cm.ConnectedVertexFamily(g, min_size))
                except FamilyError:
                    pass  # no connected vertex set that large
            if len(g.edges) <= 8:
                families.append(cm.ConnectedEdgeFamily(g))
            for fam in families:
                assert fam.strongly_accessible() == is_strongly_accessible(materialize(fam))
            fam = ExplicitFamily(random_subconfluence_masks(rng, 5), u)
            verdict = fam.strongly_accessible()
            assert verdict == is_strongly_accessible(materialize(fam))
            explicit_verdicts.append(bool(verdict))
        assert True in explicit_verdicts and False in explicit_verdicts

    def test_verdict_matches_chain_search(self):
        def chain_exists(t1, t2, members):
            stack, seen = [t1], {t1}
            while stack:
                cur = stack.pop()
                if cur == t2:
                    return True
                for e in iter_indices(t2 & ~cur):
                    nxt = cur | 1 << e
                    if nxt in members and nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            return False

        rng = random.Random(71)
        failing = 0
        for _ in range(300):
            if rng.random() < 0.5:
                members = random_subconfluence_masks(rng, rng.randint(2, 6), n_seeds=8)
            else:  # any mask set, dense enough to hold long chains
                density = rng.uniform(0.3, 0.9)
                members = [m for m in range(1 << rng.randint(2, 5)) if rng.random() < density]
            member_set = set(members)
            stuck = [
                (t1, t2)
                for t1 in members
                for t2 in members
                if t1 != t2 and is_subset(t1, t2) and not chain_exists(t1, t2, member_set)
            ]
            verdict = is_strongly_accessible(members)
            assert bool(verdict) == (not stuck)
            if not verdict:
                failing += 1
                assert verdict.witness in stuck
        assert failing > 0

    @staticmethod
    def _pair_loop(members):
        """The definitional check: every item of each nested pair's difference
        is tried as the step from t1, pair by pair in (size, mask) order."""
        member_set = set(members)
        ordered = sorted(member_set, key=lambda p: (p.bit_count(), p))
        for t1 in ordered:
            for t2 in ordered:
                if t2 == t1 or not is_subset(t1, t2):
                    continue
                if not any(t1 | 1 << e in member_set for e in iter_indices(t2 & ~t1)):
                    return cm.Verdict(False, (t1, t2))
        return cm.Verdict(True)

    def test_step_masks_match_the_pair_loop(self):
        # Verdict and witness on random mask lists: any masks (mostly not
        # subconfluences), subconfluences (often not accessible), lists holding
        # the empty pattern, and lists with duplicates.
        rng = random.Random(29)
        cases = [[], [0], [0, 0], [0b1, 0b111], [0, 0b11], [0b110, 0b10, 0b110, 0b111]]
        for _ in range(600):
            n_items = rng.randint(1, 6)
            kind = rng.randrange(3)
            if kind == 0:
                members = [rng.randrange(1 << n_items) for _ in range(rng.randint(1, 12))]
            else:
                members = random_subconfluence_masks(rng, n_items, n_seeds=rng.randint(1, 8))
            if kind == 2:  # the empty pattern and repeats
                members = rng.choices(members + [0], k=len(members) + rng.randint(1, 4))
            cases.append(members)
        kinds = set()
        for members in cases:
            verdict = is_strongly_accessible(members)
            assert verdict == self._pair_loop(members), members
            kinds.add((subconfluence_violation(members) is None, bool(verdict)))
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}


class TestFamilyProperties:
    """Randomized contract checks shared by every family kind."""

    def _families(self, rng, edge_prob=0.45):
        g = random_graph(rng, max_vertices=6, edge_prob=edge_prob)
        yield cm.ConnectedVertexFamily(g)
        for min_size in (2, 3):
            try:
                yield cm.ConnectedVertexFamily(g, min_size)
            except FamilyError:
                pass  # no connected vertex set that large
        if len(g.edges) <= 8:
            yield cm.ConnectedEdgeFamily(g)
        yield cm.KGapWordFamily(rng.randint(2, 6), rng.randint(1, 3))
        yield random_explicit_subconfluence(rng, rng.randint(2, 6))

    def test_join_above_common_member(self):
        rng = random.Random(13)
        for _ in range(8):
            for fam in self._families(rng):
                members = materialize(fam, budget=4096)
                for _ in range(30):
                    t = rng.choice(members)
                    ups = [p for p in members if is_subset(t, p)]
                    x, y = rng.choice(ups), rng.choice(ups)
                    assert fam.contains(x | y)

    def test_projection_contract(self):
        # Sparse graphs (edge_prob 0.1) are mostly disconnected: a member's
        # local top is then its own component, not the whole universe, and
        # x can cover that component but not the others.
        rng = random.Random(29)
        split = 0
        for edge_prob in (0.45, 0.1):
            for _ in range(8):
                for fam in self._families(rng, edge_prob):
                    members = materialize(fam, budget=4096)
                    full = fam.universe.full_mask
                    for _ in range(20):
                        mbr = rng.choice(members)
                        x = mbr | (rng.randrange(full + 1) & full)
                        proj = fam.project(mbr, x)
                        assert fam.contains(proj)
                        assert is_subset(mbr, proj) and is_subset(proj, x)
                        top = 0
                        for q in members:
                            if is_subset(mbr, q):
                                top |= q
                                if is_subset(q, x):
                                    assert is_subset(q, proj)
                        assert fam.project(mbr, full) == top
                        assert fam.project(mbr, x | top) == top
                        if x | top != full:
                            split += 1
                        # a member of another component joined to mbr is no member
                        for q in members:
                            if q and not q & top:
                                with pytest.raises(ValueError):
                                    fam.project(mbr | q, full)
                                break
                    with pytest.raises(ValueError):
                        fam.project(0, full)
        assert split > 100

    def test_augmentations_exactly_match_scan(self):
        rng = random.Random(31)
        for _ in range(6):
            for fam in self._families(rng):
                members = materialize(fam, budget=4096)
                for _ in range(15):
                    p = rng.choice(members)
                    expected = [
                        e
                        for e in range(fam.universe.size)
                        if not (p >> e) & 1 and fam.contains(p | 1 << e)
                    ]
                    assert fam.augmentations(p) == expected

    def test_minimals_are_incomparable_members(self):
        rng = random.Random(37)
        for _ in range(6):
            for fam in self._families(rng):
                mins = fam.minimals()
                assert all(fam.contains(m) for m in mins)
                for a in mins:
                    for b in mins:
                        assert a == b or not is_subset(a, b)

    def test_minimals_are_all_connected_sets_of_min_size(self):
        rng = random.Random(43)
        for _ in range(40):
            g = random_graph(rng, max_vertices=8, edge_prob=rng.choice([0.15, 0.3, 0.5]))
            n = len(g.vertices)
            adj = {v: set() for v in range(n)}
            for a, b in g.edges:
                adj[a].add(b)
                adj[b].add(a)

            def connected(vs):
                start = min(vs)
                seen, stack = {start}, [start]
                while stack:
                    for w in adj[stack.pop()] & vs - seen:
                        seen.add(w)
                        stack.append(w)
                return seen == vs

            for min_size in range(1, n + 1):
                expected = {
                    mask
                    for mask in range(1 << n)
                    if mask.bit_count() == min_size
                    and connected(set(iter_indices(mask)))
                }
                if not expected:
                    with pytest.raises(FamilyError, match="no connected vertex set"):
                        cm.ConnectedVertexFamily(g, min_size)
                    continue
                fam = cm.ConnectedVertexFamily(g, min_size)
                assert set(fam.minimals()) == expected
                assert list(fam.minimals()) == sorted(expected)
            with pytest.raises(FamilyError, match="at least 1"):
                cm.ConnectedVertexFamily(g, 0)
            with pytest.raises(FamilyError, match="exceeds the vertex count"):
                cm.ConnectedVertexFamily(g, n + 1)

    def test_edge_adjacency_is_shared_endpoint(self):
        rng = random.Random(47)
        for _ in range(40):
            g = random_graph(rng, max_vertices=8)
            adj = g.edge_adjacency()
            assert len(adj) == len(g.edges)
            for i, ei in enumerate(g.edges):
                for j, ej in enumerate(g.edges):
                    shares = i != j and bool(set(ei) & set(ej))
                    assert bool((adj[i] >> j) & 1) == shares

    def test_projection_agrees_with_component_search(self, quad_edge_family):
        # independent check: grow one edge at a time instead of frontier masks
        fam = quad_edge_family
        rng = random.Random(41)
        adj = fam.graph.edge_adjacency()
        for _ in range(50):
            x = rng.randrange(16)
            for e in iter_indices(x):
                comp = {e}
                grew = True
                while grew:
                    grew = False
                    for i in list(comp):
                        for j in iter_indices(adj[i] & x):
                            if j not in comp:
                                comp.add(j)
                                grew = True
                mask = sum(1 << i for i in comp)
                assert fam.project(1 << e, x) == mask


class TestFileFormats:
    def test_load_graph(self, quad_graph):
        assert quad_graph.vertices == ("1", "2", "3", "4")
        assert quad_graph.edge_labels == ("a", "b", "c", "d")

    def test_graph_parse_error_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            load_graph(["v x", "edge x y"])

    @pytest.mark.parametrize(
        ("lines", "lineno"),
        [(["v a", "v {}"], 2), (["v a", "v b", "e a b {}"], 3), (["v a", "e a {}"], 2)],
        ids=["vertex", "edge-label", "edge-endpoint"],
    )
    def test_graph_rejects_the_empty_pattern_name(self, lines, lineno):
        # the output prints the empty pattern as {}
        with pytest.raises(ParseError) as info:
            load_graph(lines)
        assert str(info.value) == f"line {lineno}: '{{}}' cannot name a vertex or an edge label"

    def test_graph_unknown_vertex(self):
        with pytest.raises(FamilyError, match="unknown vertex"):
            load_graph(["v x", "e x ghost"])

    def test_family_file_with_empty_pattern(self):
        rows = load_family_lines(["{}", "a b", "", "# comment", "a c"])
        assert rows == [(), ("a", "b"), ("a", "c")]

    def test_family_file_rejects_inline_empty_token(self):
        with pytest.raises(ParseError, match="line 1"):
            load_family_lines(["a {}"])

    def test_content_lines_skip_comments_and_blanks(self):
        lines = ["# header", "", "  v x  # trailing", "\t", "e x y\n"]
        assert list(content_lines(lines)) == [(3, "v x"), (5, "e x y")]

    def test_line_numbers_count_skipped_lines(self):
        with pytest.raises(ParseError, match="line 3"):
            load_family_lines(["# comment", "", "a {}"])

    def test_subconfluence_violation_direct(self):
        u = cm.Universe(["a", "b", "c"])
        assert subconfluence_violation([u.mask("ab"), u.mask("ac")]) is None
        assert subconfluence_violation([0, u.mask("ab"), u.mask("ac")]) == (
            0,
            u.mask("ab"),
            u.mask("ac"),
        )
