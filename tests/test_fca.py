"""Extension/intension, support closures (plain and abstract), concept
confluences, the extent decomposition, and the existence characterization."""

import random

import pytest

import confmine as cm
from confmine.families import ExplicitFamily, FamilyError, ParseError
from confmine.fca import (
    ContextError,
    anchor_minimal,
    context_from_rows,
    extensions,
    load_abstraction,
    load_context,
)
from confmine.miner import close_pattern
from confmine.oracle import materialize
from confmine.patterns import is_subset, iter_indices

from conftest import build_context
from randomized import random_context, random_explicit_subconfluence, random_graph, rows_context


class TestExtensionIntension:
    def test_extension_values(self, five_context, five_universe):
        u = five_universe
        assert five_context.format_extent(cm.extension(five_context, u.mask("a"))) == "o1 o2 o3"
        assert cm.extension(five_context, 0) == 0b111
        assert five_context.format_extent(cm.extension(five_context, u.mask("abc"))) == "o2 o3"

    def test_intension_values(self, five_context, five_universe):
        u = five_universe
        assert cm.intension(five_context, 0b111) == u.mask("ab")
        assert cm.intension(five_context, 0) == u.full_mask
        assert cm.intension(five_context, 0b100) == u.mask("abcd")

    def test_objects_outside_context_have_no_items(self, five_context, five_universe):
        # five_context holds three objects; the mirror of extension's item guard
        assert cm.intension(five_context, 0b1000) == 0
        assert cm.intension(five_context, 0b1111) == 0
        assert cm.intension(five_context, 0b111) == five_universe.mask("ab")

    def test_closure_of_support_outside_context_rejected(self, five_context, five_family):
        with pytest.raises(ValueError, match="^projection argument must contain the base$"):
            cm.closure(five_context, five_family, five_family.minimals()[0], 0b1000)

    def test_description_outside_universe_rejected(self):
        u = cm.Universe(["a"])
        with pytest.raises(ContextError):
            cm.ObjectContext(("o1",), (0b10,), u)


class TestTidsetExtension:
    """``extension`` ANDs item tidsets; it must agree with an object scan."""

    @staticmethod
    def _scan(ctx, pattern):
        return sum(
            1 << o for o, d in enumerate(ctx.descriptions) if is_subset(pattern, d)
        )

    def test_matches_object_scan(self):
        rng = random.Random(17)
        for _ in range(30):
            u = cm.Universe([f"i{k}" for k in range(rng.randint(1, 6))])
            ctx = random_context(rng, u, max_objects=9)
            for p in range(u.full_mask + 1):
                assert cm.extension(ctx, p) == self._scan(ctx, p)
            assert cm.extension(ctx, 0) == ctx.all_objects_mask

    def test_extensions_match_extension_in_any_order(self):
        # The prefix sharing depends on the order and the result must not:
        # sorted, reversed, shuffled and repeated sequences, with the empty
        # pattern and patterns with bits outside the universe mixed in.
        rng = random.Random(19)
        for _ in range(60):
            u = cm.Universe([f"i{k}" for k in range(rng.randint(1, 7))])
            ctx = random_context(rng, u, max_objects=9)
            patterns = [rng.randint(0, u.full_mask) for _ in range(rng.randint(0, 30))]
            patterns += [0, u.full_mask + 1, rng.randint(0, u.full_mask) | u.full_mask << 1]
            shuffled = patterns[:]
            rng.shuffle(shuffled)
            for seq in (
                sorted(patterns),
                sorted(patterns, reverse=True),
                shuffled,
                shuffled * 2,
                [p for p in sorted(patterns) for _ in range(2)],
            ):
                assert list(extensions(ctx, seq)) == [cm.extension(ctx, p) for p in seq]
            assert list(extensions(ctx, iter(shuffled))) == [
                cm.extension(ctx, p) for p in shuffled
            ]
        assert list(extensions(ctx, [])) == []

    def test_extensions_share_the_prefix_and(self):
        # In ascending order each pattern agrees with the one before above its
        # lowest set bit and has no item below it, so it costs one AND, where
        # a fresh extension costs one per item.
        u = cm.Universe([f"i{k}" for k in range(6)])
        ctx = random_context(random.Random(23), u)
        patterns = range(u.full_mask + 1)
        expected = [cm.extension(ctx, p) for p in patterns]
        reads = []

        class CountedTids(tuple):
            def __getitem__(self, i):
                reads.append(i)
                return tuple.__getitem__(self, i)

        vars(ctx)["tids"] = CountedTids(ctx.tids)  # replaces the cached tidsets
        assert list(extensions(ctx, patterns)) == expected
        assert len(reads) == u.full_mask

    def test_zero_objects(self):
        u = cm.Universe(["a", "b"])
        ctx = cm.ObjectContext((), (), u)
        assert ctx.tids == (0, 0)
        for p in range(u.full_mask + 1):
            assert cm.extension(ctx, p) == 0

    def test_item_major_and_derived_on_first_use(self, five_universe):
        ctx = build_context(five_universe, {"o1": "a b", "o2": "a b c", "o3": "a b c d"})
        assert "tids" not in vars(ctx)
        assert ctx.tids == (0b111, 0b111, 0b110, 0b100)
        assert vars(ctx)["tids"] is ctx.tids

    def test_items_outside_universe_have_no_objects(self, five_context):
        assert cm.extension(five_context, 1 << 4) == 0


def tids_by_pairs(ctx):
    """The tidsets by their definition, one (object, item) pair at a time."""
    tids = [0] * ctx.universe.size
    for o, d in enumerate(ctx.descriptions):
        for i in iter_indices(d):
            tids[i] |= 1 << o
    return tuple(tids)


class TestTidsetTransposition:
    """``ObjectContext.tids``, built by transposing the descriptions, against the
    definition."""

    @pytest.mark.parametrize(
        "n, w, per_row",
        [
            (0, 70, 0),  # no objects, more than 64 items
            (1, 24, 24),  # one object
            (50, 24, 0),  # empty descriptions
            (50, 24, 24),  # full descriptions
            (200, 100, 1),  # more than 64 items
            (200, 100, 50),
            (5000, 8, 1),  # more than 4,300 objects: beyond int's decimal digit limit
            (5000, 8, 8),
        ],
    )
    def test_shapes(self, n, w, per_row):
        ctx = rows_context(random.Random(n * w + per_row), n, w, per_row)
        assert ctx.tids == tids_by_pairs(ctx)

    @pytest.mark.parametrize("n", [0, 3])
    def test_zero_item_universe(self, n):
        fam = ExplicitFamily([0], cm.Universe([]))
        ctx = cm.ObjectContext(tuple(f"o{k}" for k in range(n)), (0,) * n, fam.universe)
        assert ctx.tids == ()

    @pytest.mark.parametrize("seed", range(40))
    def test_random_contexts(self, seed):
        rng = random.Random(seed)
        w = rng.randint(1, 100)
        ctx = rows_context(rng, rng.randint(0, 300), w, rng.randint(0, w))
        assert ctx.tids == tids_by_pairs(ctx)


class TestSupportClosure:
    def test_five_family_closures(self, five_context, five_family, five_universe):
        u = five_universe
        expected = {"a": "a", "b": "b", "abc": "abc", "abd": "abcd", "abcd": "abcd"}
        for pat, want in expected.items():
            got = cm.support_closure(five_context, five_family, u.mask(pat))
            assert got == u.mask(want)

    def test_full_description_context(self, five_family, five_universe):
        u = five_universe
        ctx = build_context(u, {"o1": "a b c d"})
        for pat in ("a", "b", "abc"):
            assert cm.support_closure(ctx, five_family, u.mask(pat)) == u.mask("abcd")

    def test_wedge_closures(self, wedge_context, wedge_family, wedge_universe):
        u = wedge_universe
        assert cm.support_closure(wedge_context, wedge_family, u.mask("ab")) == u.mask("abd")
        assert cm.support_closure(wedge_context, wedge_family, u.mask("ac")) == u.mask("acd")
        assert cm.support_closure(wedge_context, wedge_family, u.mask("abc")) == u.mask("abcd")

    def test_rejects_non_member(self, five_context, five_family, five_universe):
        with pytest.raises(ValueError):
            cm.support_closure(five_context, five_family, five_universe.mask("ab"))


class TestAnchorMinimal:
    def test_rejects_pattern_above_no_minimal(self, wedge_family, wedge_universe):
        # "bcd" holds neither minimal "ab" nor "ac"; nor does the empty pattern
        for pat in ("bcd", ""):
            with pytest.raises(ValueError, match="above no minimal"):
                anchor_minimal(wedge_family, wedge_universe.mask(pat))

    def test_items_outside_the_universe_hold_no_minimal(self):
        # Path a-b plus an isolated c at min_size 2: the one minimal is ab.  A
        # pattern whose universe items hold no minimal raises the ValueError
        # above, also when it holds item 3, past the index's last group.
        fam = cm.ConnectedVertexFamily(cm.GraphSpec.build(["a", "b", "c"], [("a", "b")]), 2)
        for pattern in (0b1000, 0b1100, 0b1001, 0b11000):
            with pytest.raises(ValueError, match="above no minimal"):
                anchor_minimal(fam, pattern)
        assert anchor_minimal(fam, 0b1011) == 0b0011

    @staticmethod
    def _families(rng):
        g = random_graph(rng, max_vertices=8, edge_prob=rng.choice([0.15, 0.3, 0.5]))
        for min_size in (1, 2, 3):
            try:
                yield cm.ConnectedVertexFamily(g, min_size)
            except FamilyError:
                break  # no connected vertex set that large, nor any larger
        yield cm.ConnectedEdgeFamily(g)
        yield cm.KGapWordFamily(rng.randint(1, 8), rng.randint(1, 3))
        for _ in range(3):
            yield random_explicit_subconfluence(rng, rng.randint(2, 7))

    def test_index_agrees_with_a_scan_of_every_minimal(self):
        # The least-mask minimal inside each pattern, read from the
        # highest-item index, against a scan of the minimals in mask order; a
        # pattern above no minimal raises.  Explicit families with minimals of
        # several sizes are counted, and acceptance test 08's family, whose
        # only minimal is the empty pattern (group 0 of the index), is included.
        def scan(fam, pattern):
            return next((m for m in fam.minimals() if is_subset(m, pattern)), None)

        rng = random.Random(83)
        families = [ExplicitFamily(range(1 << n), cm.Universe("abcde"[:n])) for n in (1, 3, 5)]
        families.append(ExplicitFamily([0b0001, 0b0110, 0b1110, 0b1000, 0b1100], cm.Universe("abcd")))
        for _ in range(60):
            families.extend(self._families(rng))
        mixed = 0
        for fam in families:
            assert fam.minimals_by_top[0] == ((0,) if 0 in fam.minimals() else ())
            mixed += len({m.bit_count() for m in fam.minimals()}) > 1
            size = fam.universe.size
            patterns = range(1 << size) if size <= 10 else [rng.getrandbits(size) for _ in range(1024)]
            for pattern in patterns:
                want = scan(fam, pattern)
                if want is None:
                    with pytest.raises(ValueError, match="above no minimal"):
                        anchor_minimal(fam, pattern)
                else:
                    assert anchor_minimal(fam, pattern) == want
        assert len(families) > 400 and mixed >= 40


class TestAbstractSupportClosure:
    def test_generator_abstraction(self, five_context, five_family, five_universe, pair_abstraction):
        u = five_universe
        expected = {"a": "a", "b": "b", "abc": "abcd", "abd": "abcd", "abcd": "abcd"}
        for pat, want in expected.items():
            t = u.mask(pat)
            support = pair_abstraction.apply(cm.extension(five_context, t))
            got = cm.closure(five_context, five_family, t, support)
            assert got == u.mask(want)

    def test_identity_equals_plain(self, wedge_context, wedge_family):
        ident = cm.ExtensionalAbstraction()
        for t in wedge_family.patterns:
            support = ident.apply(cm.extension(wedge_context, t))
            assert cm.closure(wedge_context, wedge_family, t, support) == cm.support_closure(
                wedge_context, wedge_family, t
            )

    def test_frequency_collapses_rare_patterns(self, wedge_context, wedge_family, wedge_universe):
        u = wedge_universe
        freq2 = cm.ExtensionalAbstraction.frequency(2)
        t = u.mask("abc")
        support = freq2.apply(cm.extension(wedge_context, t))
        got = cm.closure(wedge_context, wedge_family, t, support)
        assert got == u.mask("abcd")  # support dropped below 2, so the local top

    @pytest.mark.parametrize(
        "route", ["closure", "close_pattern", "support_closure", "equivalence_classes"]
    )
    def test_closing_applies_no_abstraction(
        self, route, monkeypatch, five_context, five_family, pair_abstraction
    ):
        # the caller applies the abstraction, once; closing never applies one
        ctx, fam = five_context, five_family
        cfg = cm.MinerConfig(family=fam, context=ctx, abstraction=pair_abstraction)
        members = materialize(fam)
        supports = [pair_abstraction.apply(cm.extension(ctx, t)) for t in members]
        routes = {
            "closure": lambda: [cm.closure(ctx, fam, t, s) for t, s in zip(members, supports)],
            "close_pattern": lambda: [close_pattern(cfg, t, s) for t, s in zip(members, supports)],
            "support_closure": lambda: [cm.support_closure(ctx, fam, t) for t in members],
            "equivalence_classes": lambda: cm.equivalence_classes(ctx, fam, members),
        }
        applied = []
        apply_ = cm.ExtensionalAbstraction.apply

        def counting(abstraction, extent):
            applied.append(extent)
            return apply_(abstraction, extent)

        monkeypatch.setattr(cm.ExtensionalAbstraction, "apply", counting)
        assert routes[route]()
        assert applied == []


def union_closure(generators) -> set[int]:
    """Every union of generators, the empty union included."""
    members = {0}
    for g in generators:
        members |= {a | g for a in members}
    return members


class TestExtensionalAbstraction:
    def test_members_union_closed_with_empty(self, pair_abstraction):
        assert {pair_abstraction.apply(e) for e in range(8)} == {0, 0b011, 0b101, 0b111}

    def test_apply_is_greatest_member_inside(self):
        rng = random.Random(3)
        for _ in range(40):
            gens = [rng.randrange(64) for _ in range(rng.randint(1, 4))]
            abstraction = cm.ExtensionalAbstraction.from_generators(gens)
            members = union_closure(gens)
            for _ in range(10):
                e = rng.randrange(64)
                inside = [a for a in members if is_subset(a, e)]
                assert abstraction.apply(e) == max(inside, key=lambda a: a.bit_count())

    def test_frequency_mode(self):
        freq = cm.ExtensionalAbstraction.frequency(2)
        assert freq.apply(0b101) == 0b101
        assert freq.apply(0b100) == 0
        assert freq.apply(0) == 0

    def test_threshold_and_generator_shapes(self):
        A = cm.ExtensionalAbstraction
        assert A() == A.frequency(0)
        assert hash(A()) == hash(A.frequency(0))
        no_generators = A.from_generators([])
        assert no_generators != A()
        assert all(no_generators.apply(e) == 0 for e in range(256))
        rng = random.Random(8)
        for _ in range(200):
            e = rng.randrange(256)
            k = rng.randint(0, 8)
            assert A.frequency(k).apply(e) == (e if e.bit_count() >= k else 0)
            gens = [rng.randrange(256) for _ in range(rng.randint(1, 5))]
            inside = 0
            for g in gens:
                if g & e == g:
                    inside |= g
            assert A.from_generators(gens).apply(e) == inside

    def test_constructor_checks_and_normalises(self):
        A = cm.ExtensionalAbstraction
        for build in (A, A.frequency):
            with pytest.raises(ValueError) as exc:
                build(-1)
            assert str(exc.value) == "minimum support must be nonnegative"
        assert A(0, (2, 1, 2)) == A.from_generators([1, 2])
        assert A(0, (2, 1, 2)).generators == (1, 2)
        with pytest.raises(ValueError) as exc:
            A(3, (1,))
        assert str(exc.value) == "a threshold cannot be given with generators"


class TestConceptConfluence:
    def test_quad_graph_concepts(self, quad_edge_family, quad_context):
        u = quad_edge_family.universe
        cc = cm.build_concept_confluence(quad_context, quad_edge_family)
        got = [
            (u.format(c.intent), quad_context.format_extent(c.extent)) for c in cc
        ]
        assert got == [
            ("a", "o1 o2 o3"),
            ("b", "o1 o2 o3"),
            ("a b c", "o2 o3"),
            ("a b c d", "o3"),
        ]

    def test_intents_form_a_confluence(self, quad_edge_family, quad_context):
        from confmine.oracle import family_poset

        cc = cm.build_concept_confluence(quad_context, quad_edge_family)
        assert cm.is_confluence(family_poset(tuple(c.intent for c in cc)))

    def test_empty_object_set(self, quad_edge_family):
        u = quad_edge_family.universe
        ctx = cm.ObjectContext((), (), u)
        cc = cm.build_concept_confluence(ctx, quad_edge_family)
        assert [c.intent for c in cc] == [u.mask("abcd")]
        assert cc[0].extent == 0

    def test_wedge_concepts(self, wedge_family, wedge_context, wedge_universe):
        u = wedge_universe
        cc = cm.build_concept_confluence(wedge_context, wedge_family)
        assert {c.intent for c in cc} == {u.mask("abd"), u.mask("acd"), u.mask("abcd")}


class TestExtentDecomposition:
    def test_five_family_instance(self, five_context, five_family):
        members = materialize(five_family)
        equal, only_left, only_right = cm.verify_extent_decomposition(
            five_context, five_family, members
        )
        assert equal
        assert {cm.extension(five_context, t) for t in members} == {0b111, 0b110, 0b100}

    def test_single_minimal_family(self, five_universe):
        u = five_universe
        fam = ExplicitFamily([u.mask("a"), u.mask("ab"), u.mask("abc")], u)
        ctx = build_context(u, {"o1": "a b", "o2": "a b c"})
        equal, _, _ = cm.verify_extent_decomposition(ctx, fam, materialize(fam))
        assert equal

    @staticmethod
    def _subset_walk(ctx, fam):
        """The right-hand side by its definition, one projection per subset S
        of each minimal's extent, and the number of distinct intension(S)."""
        right, distinct = set(), 0
        for m in fam.minimals():
            ext_m = cm.extension(ctx, m)
            meets = set()
            sub = ext_m
            while True:
                q = cm.intension(ctx, sub)
                meets.add(q)
                right.add(cm.extension(ctx, fam.project(m, q)))
                if sub == 0:
                    break
                sub = (sub - 1) & ext_m
            distinct += len(meets)
        return right, distinct

    def test_random_instances(self):
        # Against the subset walk on vertex, k-gap and explicit families.
        # Given no members, the check returns its whole right-hand side as
        # the right-only witness.  It projects each distinct intension value
        # of a minimal's extent once, never once per subset.
        rng = random.Random(11)
        calls = distinct_total = subsets_total = 0
        for _ in range(25):
            for fam in (
                cm.ConnectedVertexFamily(random_graph(rng, max_vertices=5)),
                cm.KGapWordFamily(rng.randint(2, 5), rng.randint(1, 3)),
                random_explicit_subconfluence(rng, n_items=rng.randint(2, 5)),
            ):
                ctx = random_context(rng, fam.universe, max_objects=6)
                right, distinct = self._subset_walk(ctx, fam)
                project = fam.project

                def counted(m, x):
                    nonlocal calls
                    calls += 1
                    return project(m, x)

                fam.project = counted
                before = calls
                equal, only_left, only_right = cm.verify_extent_decomposition(
                    ctx, fam, materialize(fam)
                )
                assert equal, (only_left, only_right)
                assert calls - before == distinct
                assert cm.verify_extent_decomposition(ctx, fam, ()) == (
                    not right,
                    (),
                    tuple(sorted(right)),
                )
                distinct_total += distinct
                subsets_total += sum(
                    1 << cm.extension(ctx, m).bit_count() for m in fam.minimals()
                )
        assert distinct_total < subsets_total


class TestExistenceCheck:
    def test_subconfluence_exists(self, wedge_universe):
        u = wedge_universe
        verdict = cm.support_closure_existence_check([u.mask("ab"), u.mask("ac")], u)
        assert verdict.exists

    def test_violating_family_demonstration(self):
        u = cm.Universe(["a", "b", "c", "d"])
        verdict = cm.support_closure_existence_check([0, u.mask("ab"), u.mask("ac")], u)
        assert not verdict.exists
        assert verdict.witness == (0, u.mask("ab"), u.mask("ac"))
        ctx = verdict.counterexample_context
        assert ctx.descriptions == (u.mask("abc"),)
        assert set(verdict.conflicting_maximals) == {u.mask("ab"), u.mask("ac")}
        # both maximal candidates share the lone object's support
        for t in verdict.conflicting_maximals:
            assert cm.extension(ctx, t) == 0b1

    def test_lattice_family_exists(self):
        u = cm.Universe(["a", "b"])
        verdict = cm.support_closure_existence_check([0, 1, 2, 3], u)
        assert verdict.exists


class TestGaloisLaws:
    def test_laws_on_random_contexts(self):
        rng = random.Random(17)
        for _ in range(30):
            u = cm.Universe([chr(ord("a") + i) for i in range(rng.randint(1, 6))])
            ctx = random_context(rng, u, max_objects=8)
            full_e = ctx.all_objects_mask
            for _ in range(20):
                t1 = rng.randrange(u.full_mask + 1)
                t2 = t1 | rng.randrange(u.full_mask + 1)
                assert is_subset(cm.extension(ctx, t2), cm.extension(ctx, t1))
                e1 = rng.randrange(full_e + 1) if full_e else 0
                e2 = e1 | (rng.randrange(full_e + 1) if full_e else 0)
                assert is_subset(cm.intension(ctx, e2), cm.intension(ctx, e1))
                assert is_subset(t1, cm.intension(ctx, cm.extension(ctx, t1)))
                assert is_subset(e1, cm.extension(ctx, cm.intension(ctx, e1)))

    def test_closure_is_class_maximum(self):
        # intension(extension(t)) is the largest pattern with t's support
        rng = random.Random(23)
        for _ in range(10):
            u = cm.Universe([chr(ord("a") + i) for i in range(4)])
            ctx = random_context(rng, u, max_objects=6)
            for t in range(16):
                closed = cm.intension(ctx, cm.extension(ctx, t))
                same = [
                    t2
                    for t2 in range(16)
                    if cm.extension(ctx, t2) == cm.extension(ctx, t)
                ]
                assert closed == max(same, key=lambda x: (x.bit_count(), x))
                assert all(is_subset(t2, closed) for t2 in same)

    def test_extent_closure_is_class_maximum(self):
        # dually, extension(intension(e)) dominates every extent with e's intent
        rng = random.Random(27)
        for _ in range(10):
            u = cm.Universe([chr(ord("a") + i) for i in range(3)])
            ctx = random_context(rng, u, max_objects=5)
            full = ctx.all_objects_mask
            for e in range(full + 1):
                closed = cm.extension(ctx, cm.intension(ctx, e))
                same = [
                    e2
                    for e2 in range(full + 1)
                    if cm.intension(ctx, e2) == cm.intension(ctx, e)
                ]
                assert all(is_subset(e2, closed) for e2 in same)
                assert closed in same

    def test_abstract_connection_laws(self):
        # (intension, abstraction . extension) must stay a Galois connection:
        # both composites extensive, on abstraction members and patterns
        rng = random.Random(43)
        for _ in range(20):
            u = cm.Universe([chr(ord("a") + i) for i in range(4)])
            ctx = random_context(rng, u, max_objects=6)
            gens = [
                rng.randrange(ctx.all_objects_mask + 1)
                for _ in range(rng.randint(1, 3))
            ]
            abstraction = cm.ExtensionalAbstraction.from_generators(gens)
            for x in union_closure(gens):
                assert is_subset(x, abstraction.apply(cm.extension(ctx, cm.intension(ctx, x))))
            for t in range(16):
                assert is_subset(
                    t, cm.intension(ctx, abstraction.apply(cm.extension(ctx, t)))
                )

    def test_anchor_choice_independence(self, quad_edge_family, quad_context):
        # closing through any minimal inside the pattern gives the same value
        fam, ctx = quad_edge_family, quad_context
        u = fam.universe
        for pat in ("abc", "abcd", "abd"):
            t = u.mask(pat)
            q = cm.intension(ctx, cm.extension(ctx, t))
            values = {
                fam.project(m, q)
                for m in fam.minimals()
                if is_subset(m, t)
            }
            assert len(values) == 1


class TestContextFormats:
    def test_load_context(self):
        rows = load_context(["o1: a b", "", "# note", "o2: b"])
        assert rows == [("o1", ("a", "b")), ("o2", ("b",))]

    def test_load_context_holds_one_string_per_item(self):
        # Tokens split from different lines are equal but distinct strings
        # until the loader interns them (CPython shares one-character strings
        # anyway, so every name here is longer).
        rows = load_context([f"o{k}: first b{k % 3} last\n" for k in range(9)])
        tokens = [t for _, items in rows for t in items]
        for t in tokens:
            first = next(u for u in tokens if u == t)
            assert t is first
        assert len({id(t) for t in tokens}) == 5

    def test_duplicate_object(self):
        with pytest.raises(Exception, match="duplicate"):
            load_context(["o1: a", "o1: b"])

    @pytest.mark.parametrize(
        ("lines", "lineno", "message"),
        [
            (["o1: a", "my obj: a b"], 2, "object name 'my obj' is not one token"),
            (["o1: a", "\tmy\tobj : b"], 2, "object name 'my\\tobj' is not one token"),
            (["{}: a"], 1, "'{}' cannot name an object"),
            (["o1: a", "# {}", "o2: b {}", "o3: {}"], 3, "'{}' cannot name an item"),
            (["o1:{}"], 1, "'{}' cannot name an item"),
        ],
        ids=["spaced-object", "tabbed-object", "braces-object", "braces-item", "braces-item-unspaced"],
    )
    def test_names_the_output_cannot_tell_apart(self, lines, lineno, message):
        # the TSV output joins names with spaces and prints an empty set as {}
        with pytest.raises(ParseError) as info:
            load_context(lines)
        assert info.value.lineno == lineno
        assert str(info.value) == f"line {lineno}: {message}"

    def test_names_holding_braces_are_kept(self):
        assert load_context(["{}o: {}a a{}"]) == [("{}o", ("{}a", "a{}"))]

    @pytest.mark.parametrize(
        ("objects", "descriptions", "message"),
        [
            (("o1", "o1"), (0b1, 0b1), "duplicate object names"),
            (("o1", "o2"), (0b1,), "description count does not match object count"),
        ],
        ids=["repeated-name", "too-few-descriptions"],
    )
    def test_object_context_rejects(self, objects, descriptions, message):
        with pytest.raises(ContextError) as exc:
            cm.ObjectContext(objects, descriptions, cm.Universe(["a"]))
        assert str(exc.value) == message

    def test_unknown_item_rejected(self):
        u = cm.Universe(["a"])
        with pytest.raises(ContextError, match="unknown item"):
            context_from_rows([("o1", ("z",))], u)

    def test_load_abstraction(self):
        abstraction = load_abstraction(["o1 o2", "o1 o3"], ("o1", "o2", "o3"))
        assert abstraction.generators == (0b011, 0b101)

    def test_abstraction_unknown_object(self):
        with pytest.raises(Exception, match="unknown object"):
            load_abstraction(["o9"], ("o1",))
