"""Miner behavior: the closure step, golden traversal traces, exclusion
semantics, closures remembered by abstract support (against a reference copy
of the traversal with the item exclusion mask), degeneration to classical
closed-itemset mining, independence from item and object order, and oracle
parity."""

import hashlib
import importlib.util
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import confmine as cm
from confmine.families import ExplicitFamily, explicit_family_from_names
from confmine.fca import anchor_minimal, context_from_rows, load_abstraction, load_context
from confmine.miner import MinimalEvent, MineEvent, PruneEvent, close_pattern
from confmine.oracle import materialize, oracle_closed_set
from confmine.patterns import is_subset, iter_indices
from conftest import build_context, read_lines
from randomized import (
    abstraction_kinds,
    family_kinds,
    random_abstraction,
    random_context,
    random_explicit_subconfluence,
    random_graph,
    random_vertex_instance,
    reference_mine_trace,
)


def intents(concepts):
    return [c.intent for c in concepts]


def close(cfg, pattern):
    """``close_pattern`` with the pattern's abstract support computed here:
    (closed pattern, abstract support)."""
    support = cfg.abstraction.apply(cm.extension(cfg.context, pattern))
    return close_pattern(cfg, pattern, support), support


class TestClosePattern:
    def test_wedge_closures(self, wedge_family, wedge_context, wedge_universe):
        u = wedge_universe
        cfg = cm.MinerConfig(family=wedge_family, context=wedge_context)
        assert close(cfg, u.mask("ab"))[0] == u.mask("abd")
        assert close(cfg, u.mask("ac"))[0] == u.mask("acd")
        assert close(cfg, u.mask("abc"))[0] == u.mask("abcd")

    def test_idempotent_on_closed(self, wedge_family, wedge_context, wedge_universe):
        cfg = cm.MinerConfig(family=wedge_family, context=wedge_context)
        closed = close(cfg, wedge_universe.mask("ab"))[0]
        assert close(cfg, closed)[0] == closed

    def test_threshold_above_object_count(self, wedge_family, wedge_context, wedge_universe):
        cfg = cm.MinerConfig(
            family=wedge_family,
            context=wedge_context,
            abstraction=cm.ExtensionalAbstraction.frequency(4),
        )
        u = wedge_universe
        pattern, extent = close(cfg, u.mask("ab"))
        assert pattern == wedge_family.project(u.mask("ab"), u.full_mask) == u.mask("abcd")
        assert extent == 0

    def test_rejects_non_member(self, wedge_family, wedge_context, wedge_universe):
        # close_pattern skips the membership test; fca.closure owns it
        non_member = wedge_universe.mask("a")
        support = cm.extension(wedge_context, non_member)
        with pytest.raises(ValueError):
            cm.closure(wedge_context, wedge_family, non_member, support)


def _sample_events():
    """One record of each kind, built afresh on each call."""
    return {
        MineEvent: MineEvent(cm.Concept(0b011, 0b101, 0b001), None),
        PruneEvent: PruneEvent(0b111, 0b101, 0b001),
        MinimalEvent: MinimalEvent(0b001, True),
    }


class TestTraceEventRecords:
    """The record contract of the three trace event kinds."""

    FIELDS = {
        MineEvent: ("concept", "parent_intent"),
        PruneEvent: ("closure", "parent_intent", "blocked_by_minimal"),
        MinimalEvent: ("minimal", "enumerated"),
    }

    @pytest.mark.parametrize("kind", [MineEvent, PruneEvent, MinimalEvent], ids=lambda k: k.__name__)
    def test_fields_cannot_be_assigned(self, kind):
        ev = _sample_events()[kind]
        for name in self.FIELDS[kind]:
            with pytest.raises(AttributeError):
                setattr(ev, name, 7)

    @pytest.mark.parametrize("kind", [MineEvent, PruneEvent, MinimalEvent], ids=lambda k: k.__name__)
    def test_equal_records_hash_equal(self, kind):
        one, two = _sample_events()[kind], _sample_events()[kind]
        assert one is not two
        assert one == two and hash(one) == hash(two)
        assert len({one, two}) == 1

    @pytest.mark.parametrize("kind", [MineEvent, PruneEvent, MinimalEvent], ids=lambda k: k.__name__)
    def test_fields_have_no_defaults(self, kind):
        assert kind._fields == self.FIELDS[kind]
        assert kind._field_defaults == {}

    def test_prune_derived_attributes_cannot_be_assigned(self):
        child, root = PruneEvent(0b111, 0b101, 0b001), PruneEvent(0b111, None, 0b001)
        assert (child.at_root, root.at_root) == (False, True)
        assert child.blocked_by_item is None and root.blocked_by_item is None
        for name in ("at_root", "blocked_by_item"):
            with pytest.raises(AttributeError):
                setattr(child, name, 7)

    def test_repr(self):
        events = _sample_events()
        assert repr(events[MineEvent]) == (
            "MineEvent(concept=Concept(extent=3, intent=5, anchor_minimal=1), "
            "parent_intent=None)"
        )
        assert repr(events[PruneEvent]) == (
            "PruneEvent(closure=7, parent_intent=5, blocked_by_minimal=1)"
        )
        assert repr(events[MinimalEvent]) == "MinimalEvent(minimal=1, enumerated=True)"

    def test_isinstance_tells_kinds_apart(self):
        kinds = (MineEvent, PruneEvent, MinimalEvent)
        for kind, ev in _sample_events().items():
            assert [k for k in kinds if isinstance(ev, k)] == [kind]


def _sample_records():
    """A Concept and an EquivalenceClass, built afresh on each call."""
    return {
        cm.Concept: cm.Concept(0b011, 0b101, 0b001),
        cm.EquivalenceClass: cm.EquivalenceClass(0b11, (0b01, 0b11), (0b01,), (0b11,)),
    }


class TestValueRecords:
    """The record contract of the two value records the miner and the support
    classes build once per step."""

    FIELDS = {
        cm.Concept: ("extent", "intent", "anchor_minimal"),
        cm.EquivalenceClass: ("extent", "members", "generators", "closed"),
    }
    KINDS = list(FIELDS)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
    def test_fields_cannot_be_assigned(self, kind):
        record = _sample_records()[kind]
        assert kind._fields == self.FIELDS[kind]
        for name in self.FIELDS[kind]:
            with pytest.raises(AttributeError):
                setattr(record, name, 7)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
    def test_equal_records_hash_equal(self, kind):
        one, two = _sample_records()[kind], _sample_records()[kind]
        assert one is not two
        assert one == two and hash(one) == hash(two)
        assert len({one, two}) == 1

    def test_repr(self):
        records = _sample_records()
        assert repr(records[cm.Concept]) == (
            "Concept(extent=3, intent=5, anchor_minimal=1)"
        )
        assert repr(records[cm.EquivalenceClass]) == (
            "EquivalenceClass(extent=3, members=(1, 3), generators=(1,), closed=(3,))"
        )


class TestWedgeTrace:
    def test_golden_event_trace(self, wedge_family, wedge_context, wedge_universe):
        u = wedge_universe
        cfg = cm.MinerConfig(family=wedge_family, context=wedge_context)
        got = []
        for ev in cm.mine_trace(cfg):
            if isinstance(ev, MineEvent):
                parent = None if ev.parent_intent is None else u.format(ev.parent_intent)
                got.append(("emit", u.format(ev.concept.intent), parent))
            elif isinstance(ev, PruneEvent):
                got.append(
                    (
                        "prune",
                        u.format(ev.closure),
                        u.format(ev.blocked_by_minimal),
                    )
                )
            else:
                got.append(("minimal", u.format(ev.minimal), ev.enumerated))
        assert got == [
            ("emit", "a b d", None),
            ("emit", "a b c d", "a b d"),
            ("minimal", "a b", True),
            ("emit", "a c d", None),
            ("prune", "a b c d", "a b"),
            ("minimal", "a c", True),
        ]

    def test_each_intent_emitted_once(self, wedge_family, wedge_context, wedge_universe):
        u = wedge_universe
        cfg = cm.MinerConfig(family=wedge_family, context=wedge_context)
        out = intents(cm.mine(cfg))
        assert sorted(out) == sorted({u.mask(p) for p in ("abd", "acd", "abcd")})
        assert len(out) == len(set(out))


def _data_instance(name):
    """A miner config built from the ``tests/data`` files, as the CLI builds it."""
    if name.startswith("quad"):
        fam = cm.ConnectedEdgeFamily(cm.load_graph(read_lines("quad.graph")))
        ctx = context_from_rows(load_context(read_lines("quad.ctx")), fam.universe)
        if name == "quad-pairgen":
            abstraction = load_abstraction(read_lines("pairgen.abs"), ctx.objects)
            return cm.MinerConfig(family=fam, context=ctx, abstraction=abstraction)
        return cm.MinerConfig(family=fam, context=ctx)
    if name.startswith("wedge"):
        rows = load_context(read_lines("wedge.ctx"))
        fam = explicit_family_from_names(
            cm.load_family_lines(read_lines("wedge.family")),
            extra_items=[item for _, items in rows for item in items],
        )
        ctx = context_from_rows(rows, fam.universe)
        if name == "wedge-min-support-2":
            abstraction = cm.ExtensionalAbstraction.frequency(2)
            return cm.MinerConfig(family=fam, context=ctx, abstraction=abstraction)
        return cm.MinerConfig(family=fam, context=ctx)
    fam = cm.KGapWordFamily(4, 2)
    ctx = context_from_rows(load_context(read_lines("kgap.ctx")), fam.universe)
    return cm.MinerConfig(family=fam, context=ctx)


def _render_trace(cfg):
    """Every field of every event, items and objects by name."""
    u, ctx = cfg.family.universe, cfg.context

    def fmt(mask):
        return None if mask is None else u.format(mask)

    out = []
    for ev in cm.mine_trace(cfg):
        if isinstance(ev, MineEvent):
            c = ev.concept
            out.append(
                (
                    "emit", fmt(c.intent), ctx.objects.format(c.extent),
                    fmt(c.anchor_minimal), c.extent == 0, fmt(ev.parent_intent),
                )
            )
        elif isinstance(ev, PruneEvent):
            item = None if ev.blocked_by_item is None else u.names[ev.blocked_by_item]
            out.append(
                (
                    "prune", fmt(ev.closure), fmt(ev.parent_intent),
                    fmt(ev.blocked_by_minimal), item, ev.at_root,
                )
            )
        else:
            out.append(("minimal", fmt(ev.minimal), ev.enumerated))
    return out


GOLDEN_TRACES = {
    "quad": [
        ("emit", "a", "o1 o2 o3", "a", False, None),
        ("emit", "a b c", "o2 o3", "a", False, "a"),
        ("emit", "a b c d", "o3", "a", False, "a b c"),
        ("minimal", "a", True),
        ("emit", "b", "o1 o2 o3", "b", False, None),
        ("prune", "a b c", "b", "a", None, False),
        ("prune", "a b c d", "b", "a", None, False),
        ("minimal", "b", True),
        ("prune", "a b c", None, "a", None, True),
        ("minimal", "c", False),
        ("prune", "a b c d", None, "a", None, True),
        ("minimal", "d", False),
    ],
    "quad-pairgen": [
        ("emit", "a", "o1 o2 o3", "a", False, None),
        ("emit", "a b c d", "{}", "a", True, "a"),
        ("minimal", "a", True),
        ("emit", "b", "o1 o2 o3", "b", False, None),
        ("prune", "a b c d", "b", "a", None, False),
        ("minimal", "b", True),
        ("prune", "a b c d", None, "a", None, True),
        ("minimal", "c", False),
        ("minimal", "d", False),
    ],
    "wedge": [
        ("emit", "a b d", "o1 o2", "a b", False, None),
        ("emit", "a b c d", "o2", "a b", False, "a b d"),
        ("minimal", "a b", True),
        ("emit", "a c d", "o2 o3", "a c", False, None),
        ("prune", "a b c d", "a c d", "a b", None, False),
        ("minimal", "a c", True),
    ],
    "wedge-min-support-2": [
        ("emit", "a b d", "o1 o2", "a b", False, None),
        ("emit", "a b c d", "{}", "a b", True, "a b d"),
        ("minimal", "a b", True),
        ("emit", "a c d", "o2 o3", "a c", False, None),
        ("prune", "a b c d", "a c d", "a b", None, False),
        ("minimal", "a c", True),
    ],
    "kgap-4-2": [
        ("emit", "a1 a2", "o1", "a1", False, None),
        ("emit", "a1 a2 a3 a4", "{}", "a1", True, "a1 a2"),
        ("minimal", "a1", True),
        ("emit", "a2", "o1 o2", "a2", False, None),
        ("prune", "a1 a2", "a2", "a1", None, False),
        ("emit", "a2 a3", "o2", "a2", False, "a2"),
        ("prune", "a1 a2 a3 a4", "a2 a3", "a1", None, False),
        ("minimal", "a2", True),
        ("prune", "a2 a3", None, "a2", None, True),
        ("minimal", "a3", False),
        ("prune", "a1 a2 a3 a4", None, "a1", None, True),
        ("minimal", "a4", False),
    ],
}


# A 4-cycle v0-v2-v1-v3 with chord v2-v3, under the identity abstraction.
# The empty support is first closed under v0 v1 v2, to the local top
# v0 v1 v2 v3.  The child v0 v1 v2 v3 of v0 v1 v3, and then the child
# v0 v2 v3 of v0 v3, have the empty support again, so neither is closed and
# neither leaves an event.  The item exclusion mask of Boley et al. (TCS 2010)
# closed both and pruned them, naming v2 and then v1.
REPEATED_SUPPORT_TRACE = [
    ("emit", "v0", "o1 o2 o3", "v0", False, None),
    ("emit", "v0 v1 v2", "o2", "v0", False, "v0"),
    ("emit", "v0 v1 v2 v3", "{}", "v0", True, "v0 v1 v2"),
    ("emit", "v0 v3", "o1 o3", "v0", False, "v0"),
    ("emit", "v0 v1 v3", "o3", "v0", False, "v0 v3"),
    ("minimal", "v0", True),
    ("emit", "v1", "o2 o3", "v1", False, None),
    ("prune", "v0 v1 v2", "v1", "v0", None, False),
    ("prune", "v0 v1 v3", "v1", "v0", None, False),
    ("minimal", "v1", True),
    ("prune", "v0 v1 v2", None, "v0", None, True),
    ("minimal", "v2", False),
    ("prune", "v0 v3", None, "v0", None, True),
    ("minimal", "v3", False),
]


class TestGoldenTraces:
    """The full event sequence, every field, on the ``tests/data`` instances:
    emissions (intent, extent, anchor, empty-support flag, parent), prunes
    (closure, parent, blocking minimal or item, root flag) and minimals."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
    def test_event_sequence(self, name):
        assert _render_trace(_data_instance(name)) == GOLDEN_TRACES[name]

    def test_support_closed_once_per_subtree(self):
        graph = cm.GraphSpec.build(
            ("v0", "v1", "v2", "v3"),
            [("v0", "v2"), ("v0", "v3"), ("v1", "v2"), ("v1", "v3"), ("v2", "v3")],
        )
        fam = cm.ConnectedVertexFamily(graph)
        ctx = build_context(
            fam.universe, {"o1": "v0 v3", "o2": "v0 v1 v2", "o3": "v0 v1 v3"}
        )
        cfg = cm.MinerConfig(family=fam, context=ctx)
        assert _render_trace(cfg) == REPEATED_SUPPORT_TRACE

    def test_acceptance_09_instance_trace(self):
        """Acceptance test 09's 20-vertex instance, where the ``tests/data``
        instances have 6 items or fewer: the count of each event kind and a
        digest of the whole trace."""
        trace = _render_trace(random_vertex_instance(2024, 20, 30, 50))
        prunes = [ev for ev in trace if ev[0] == "prune"]
        assert Counter(ev[0] for ev in trace) == {"emit": 365, "prune": 348, "minimal": 20}
        assert all(ev[3] is not None for ev in prunes)  # each blocked by a minimal
        assert not any(ev[5] for ev in prunes)  # at a root
        digest = hashlib.sha256(repr(trace).encode()).hexdigest()
        assert digest == "1691aa14a50315d3b22bcab1da867fc39f89938b1ece99f5804c00780d1fa60d"

    def test_acceptance_09_instance_emissions(self):
        """The emissions alone on the same instance, pinned as they were
        before closures were remembered by abstract support: the order and
        every field of each concept, apart from the prunes around them."""
        trace = _render_trace(random_vertex_instance(2024, 20, 30, 50))
        emits = [ev for ev in trace if ev[0] == "emit"]
        assert len(emits) == 365
        digest = hashlib.sha256(repr(emits).encode()).hexdigest()
        assert digest == "9a913e15d202d12de55105da6d91edc8d343cba9957ba4824546db04b3995a32"

    def test_seeded_trace_digests(self):
        """Seeds 0-39 of ``tests/tools/trace_digests.py``: 720 traces, every
        family kind under every abstraction kind, hashed as the tool prints
        them with ``--count 40``.  A change that alters a trace on purpose
        restates this value and records the change in ``CHANGES.md``."""
        path = Path(__file__).parent / "tools" / "trace_digests.py"
        spec = importlib.util.spec_from_file_location("trace_digests", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        h = hashlib.sha256()
        for seed in range(40):
            for line in tool.instance_lines(seed):
                h.update(f"{line}\n".encode())
        assert h.hexdigest() == "8e2499d937974393502f7776a2f09fd2ee87a9ef4de809f15ffa727d4a961c0a"


class TestQuadGraphMining:
    def test_concepts_and_anchors(self, quad_edge_family, quad_context):
        u = quad_edge_family.universe
        cfg = cm.MinerConfig(family=quad_edge_family, context=quad_context)
        concepts = list(cm.mine(cfg))
        got = [(u.format(c.intent), quad_context.objects.format(c.extent)) for c in concepts]
        assert got == [
            ("a", "o1 o2 o3"),
            ("a b c", "o2 o3"),
            ("a b c d", "o3"),
            ("b", "o1 o2 o3"),
        ]
        anchors = {u.format(c.intent): u.format(c.anchor_minimal) for c in concepts}
        assert anchors["a"] == "a" and anchors["b"] == "b"

    def test_generator_abstraction_collapses(self, quad_edge_family, quad_context, pair_abstraction):
        u = quad_edge_family.universe
        cfg = cm.MinerConfig(
            family=quad_edge_family, context=quad_context, abstraction=pair_abstraction
        )
        got = {u.format(c.intent): c.extent == 0 for c in cm.mine(cfg)}
        assert got == {"a": False, "b": False, "a b c d": True}

    def test_empty_support_never_expanded(self, quad_edge_family, quad_context, pair_abstraction):
        cfg = cm.MinerConfig(
            family=quad_edge_family, context=quad_context, abstraction=pair_abstraction
        )
        # an empty-support concept may be reached, but it never becomes a parent
        empty = {
            ev.concept.intent
            for ev in cm.mine_trace(cfg)
            if isinstance(ev, MineEvent) and ev.concept.extent == 0
        }
        all_parents = {
            ev.parent_intent
            for ev in cm.mine_trace(cfg)
            if isinstance(ev, MineEvent) and ev.parent_intent is not None
        }
        assert not (empty & all_parents)


class TestExclusionListPlacements:
    """A minimal whose subtree does not run still blocks later closures.

    The miner keeps no list of blocking minimals: it prunes every closure
    whose anchor (least-mask minimal inside it) is not its subtree's root, so
    a minimal blocks whether or not its own subtree ran.  The alternative
    (only minimals whose subtree ran block, as a literal pseudo-code reading
    of an exclusion list would do) produces the same output on every
    instance; this case distinguishes the two by the bookkeeping itself.
    """

    @pytest.fixture
    def instance(self):
        u = cm.Universe(["a", "b", "c"])
        fam = ExplicitFamily(
            [u.mask("a"), u.mask("b"), u.mask("ab"), u.mask("abc")], u
        )
        ctx = build_context(u, {"o1": "a b c"})
        return u, fam, ctx

    def test_pruned_minimal_still_excluded(self, instance):
        u, fam, ctx = instance
        cfg = cm.MinerConfig(family=fam, context=ctx)
        events = list(cm.mine_trace(cfg))
        minimal_events = [ev for ev in events if isinstance(ev, MinimalEvent)]
        assert [(u.format(ev.minimal), ev.enumerated) for ev in minimal_events] == [
            ("a", True),
            ("b", False),
        ]
        # b has the abstract support of a, whose root closure a b c holds b:
        # that is b's closure too, anchored at a, so it is not closed again
        assert not any(isinstance(ev, PruneEvent) for ev in events)

    def test_both_placements_agree_on_output(self, instance):
        u, fam, ctx = instance
        cfg = cm.MinerConfig(family=fam, context=ctx)
        ours = sorted(intents(cm.mine(cfg)))
        assert ours == sorted(self._mine_excluding_only_enumerated(cfg))

    def test_excluding_pruned_minimal_never_loses_output(self):
        # minimal b, whose subtree does not run, blocks the closures above
        # it, yet a later unrelated minimal still gets enumerated
        u = cm.Universe(["a", "b", "c", "d"])
        fam = ExplicitFamily(
            [u.mask("a"), u.mask("b"), u.mask("ab"), u.mask("abc"), u.mask("d")], u
        )
        ctx = build_context(u, {"o1": "a b c", "o2": "d"})
        cfg = cm.MinerConfig(family=fam, context=ctx)
        events = list(cm.mine_trace(cfg))
        minimal_flags = [
            (u.format(ev.minimal), ev.enumerated)
            for ev in events
            if isinstance(ev, MinimalEvent)
        ]
        assert minimal_flags == [("a", True), ("b", False), ("d", True)]
        emitted = sorted(
            u.format(ev.concept.intent) for ev in events if isinstance(ev, MineEvent)
        )
        assert emitted == ["a b c", "d"]
        members = materialize(fam)
        assert {ev.concept.intent for ev in events if isinstance(ev, MineEvent)} == (
            oracle_closed_set(ctx, members, cm.ExtensionalAbstraction())
        )

    @staticmethod
    def _mine_excluding_only_enumerated(cfg):
        """Reference variant: a minimal joins the exclusion list only when its
        subtree was actually enumerated."""
        out = []
        excluded = []

        def enum(pattern, extent, excl_items):
            out.append(pattern)
            if extent == 0:
                return
            excl_items = list(excl_items)
            for e in cfg.family.augmentations(pattern):
                q, q_extent = close(cfg, pattern | (1 << e))
                if not any(is_subset(m, q) for m in excluded) and all(
                    not (q >> i) & 1 for i in excl_items
                ):
                    enum(q, q_extent, excl_items)
                    excl_items.append(e)

        for m in cfg.family.minimals():
            p, extent = close(cfg, m)
            if not any(is_subset(m, p) for m in excluded):
                enum(p, extent, [])
                excluded.append(m)
        return out


def _relabelled(rng, fam, ctx, abstraction):
    """The same instance with its items (vertex and edge order, or the
    explicit universe's order) and its object rows in a random order, each
    generator mapped along."""
    names = fam.universe.names_of
    if isinstance(fam, ExplicitFamily):
        universe = cm.Universe(rng.sample(fam.universe.names, fam.universe.size))
        relabelled = ExplicitFamily([universe.mask(names(p)) for p in fam.patterns], universe)
    else:
        g = fam.graph
        vertices = rng.sample(range(len(g.vertices)), len(g.vertices))
        position = {v: k for k, v in enumerate(vertices)}
        edges = rng.sample(range(len(g.edges)), len(g.edges))
        graph = cm.GraphSpec(
            tuple(g.vertices[v] for v in vertices),
            tuple((position[g.edges[e][0]], position[g.edges[e][1]]) for e in edges),
            tuple(g.edge_labels[e] for e in edges),
        )
        if isinstance(fam, cm.ConnectedEdgeFamily):
            relabelled = cm.ConnectedEdgeFamily(graph)
        else:
            relabelled = cm.ConnectedVertexFamily(graph, fam.min_size)
    rows = rng.sample(range(ctx.objects.size), ctx.objects.size)
    universe = relabelled.universe
    context = cm.ObjectContext(
        cm.Universe([ctx.objects.names[o] for o in rows]),
        tuple(universe.mask(names(ctx.descriptions[o])) for o in rows),
        universe,
    )
    if abstraction.generators is not None:
        row = {o: k for k, o in enumerate(rows)}
        abstraction = cm.ExtensionalAbstraction.from_generators(
            sum(1 << row[o] for o in iter_indices(gen)) for gen in abstraction.generators
        )
    return relabelled, context, abstraction


class TestRelabelling:
    """Renumbering the items and the object rows changes no concept and no
    basis line: the connected-set walk, the tidsets, the prefix-shared ANDs
    and the anchor index depend on no index order.  The anchor is the
    least-mask minimal, so it does depend on the order, and is left out."""

    @staticmethod
    def _concepts(fam, ctx, abstraction):
        names = fam.universe.names_of
        return {
            (frozenset(names(c.intent)), frozenset(ctx.objects.names_of(c.extent)))
            for c in cm.mine(cm.MinerConfig(fam, ctx, abstraction))
        }

    @staticmethod
    def _basis(fam, ctx):
        names = fam.universe.names_of
        return {
            (frozenset(names(p)), frozenset(names(q)), kind)
            for p, q, kind in cm.minmax_basis(ctx, fam, materialize(fam))
        }

    def test_random_instances(self):
        rng = random.Random(37)
        reordered = 0
        for _ in range(40):
            for fam in [f for f in family_kinds(rng) if not isinstance(f, cm.KGapWordFamily)]:
                ctx = random_context(rng, fam.universe, max_objects=6)
                for abstraction in abstraction_kinds(rng, ctx.objects.size):
                    other = _relabelled(rng, fam, ctx, abstraction)
                    reordered += other[0].universe.names != fam.universe.names
                    assert self._concepts(*other) == self._concepts(fam, ctx, abstraction)
                assert self._basis(*other[:2]) == self._basis(fam, ctx)
        assert reordered > 300


class TestSingletonFamily:
    def test_emits_only_the_member(self):
        u = cm.Universe(["a", "b"])
        fam = ExplicitFamily([u.mask("ab")], u)
        ctx = build_context(u, {"o1": "a b"})
        cfg = cm.MinerConfig(family=fam, context=ctx)
        assert intents(cm.mine(cfg)) == [u.mask("ab")]


class TestLatticeDegeneration:
    def test_matches_classical_closed_itemsets(self):
        rng = random.Random(5)
        u = cm.Universe(["a", "b", "c", "d"])
        fam = ExplicitFamily(range(16), u)
        for _ in range(20):
            ctx = random_context(rng, u, max_objects=6)
            cfg = cm.MinerConfig(family=fam, context=ctx)
            mined = set(intents(cm.mine(cfg)))
            classical = {cm.intension(ctx, cm.extension(ctx, t)) for t in range(16)}
            assert mined == classical


class TestMinerValidation:
    def test_rejects_non_accessible_explicit_family(self, five_family, five_context):
        cfg = cm.MinerConfig(family=five_family, context=five_context)
        with pytest.raises(cm.NotStronglyAccessibleError):
            cm.mine_trace(cfg)

    def test_asks_the_family_for_strong_accessibility(self, quad_edge_family, quad_context):
        # The gate reads the family's own answer, whatever the family's class.
        u = quad_edge_family.universe
        witness = (u.mask("a"), u.mask("ab"))

        class Refusing(cm.ConnectedEdgeFamily):
            def strongly_accessible(self):
                return cm.Verdict(False, witness)

        fam = Refusing(quad_edge_family.graph)
        cfg = cm.MinerConfig(family=fam, context=quad_context)
        message = "^family is not strongly accessible: no single-item chain from a to a b$"
        with pytest.raises(cm.NotStronglyAccessibleError, match=message) as exc:
            cm.mine_trace(cfg)
        assert exc.value.witness == witness

    def test_rejects_universe_mismatch(self, five_family, wedge_context):
        with pytest.raises(ValueError, match="universe"):
            cm.MinerConfig(family=five_family, context=wedge_context)


class TestDeterminism:
    def test_traversal_identical_across_runs(self, quad_edge_family, quad_context):
        cfg = cm.MinerConfig(family=quad_edge_family, context=quad_context)
        first = list(cm.mine_trace(cfg))
        second = list(cm.mine_trace(cfg))
        assert first == second

    def test_fresh_instances_give_identical_traces(self):
        def build():
            g = cm.GraphSpec.build(
                ("1", "2", "3"), [("1", "2", "x"), ("2", "3", "y")]
            )
            fam = cm.ConnectedEdgeFamily(g)
            ctx = build_context(fam.universe, {"o1": "x", "o2": "x y"})
            return cm.MinerConfig(family=fam, context=ctx)

        assert list(cm.mine_trace(build())) == list(cm.mine_trace(build()))


class TestMinerAgainstOracle:
    def test_random_instances(self):
        rng = random.Random(99)
        for _ in range(30):
            kind = rng.randrange(3)
            if kind == 0:
                fam = cm.ConnectedVertexFamily(random_graph(rng, max_vertices=6))
            elif kind == 1:
                g = random_graph(rng, max_vertices=5)
                fam = cm.ConnectedEdgeFamily(g)
            else:
                fam = random_explicit_subconfluence(
                    rng, n_items=4, require_strong_accessibility=True
                )
            ctx = random_context(rng, fam.universe, max_objects=8)
            abstraction = random_abstraction(rng, ctx.objects.size)
            cfg = cm.MinerConfig(family=fam, context=ctx, abstraction=abstraction)
            concepts = list(cm.mine(cfg))
            mined = intents(concepts)
            assert len(mined) == len(set(mined))
            members = materialize(fam)
            assert set(mined) == oracle_closed_set(ctx, members, abstraction)
            for c in concepts:
                assert c.extent == abstraction.apply(cm.extension(ctx, c.intent))
                assert cm.closure(ctx, fam, c.intent, c.extent) == c.intent


class TestRootAnchorsAcrossFamilyKinds:
    """Every emitted concept's anchor (its subtree's root minimal) is the
    least-mask minimal inside its intent, its extent is the abstraction of
    its intent's support, and the emitted intents are the oracle's closed
    set, for every family kind under identity, frequency and generator
    abstractions."""

    def test_random_instances(self):
        rng = random.Random(2002)
        for _ in range(8):
            for fam in family_kinds(rng):
                members = materialize(fam)
                ctx = random_context(rng, fam.universe, max_objects=6)
                for abstraction in abstraction_kinds(rng, ctx.objects.size):
                    cfg = cm.MinerConfig(family=fam, context=ctx, abstraction=abstraction)
                    trace = list(cm.mine_trace(cfg))
                    mined = [ev for ev in trace if isinstance(ev, MineEvent)]
                    for ev in mined:
                        c = ev.concept
                        assert c.anchor_minimal == anchor_minimal(fam, c.intent)
                        support = sum(
                            1 << o
                            for o, d in enumerate(ctx.descriptions)
                            if is_subset(c.intent, d)
                        )
                        assert c.extent == abstraction.apply(support)
                    got = intents(ev.concept for ev in mined)
                    assert len(got) == len(set(got))
                    assert set(got) == oracle_closed_set(ctx, members, abstraction)
                    self._check_boley_invariants(fam, trace)

    def test_one_anchor_per_closure(self, monkeypatch):
        # the anchor is the miner's only duplicate test: computed once for
        # every closure, emitted or pruned, at the root or below it
        calls = 0

        def counted(fam, pattern):
            nonlocal calls
            calls += 1
            return anchor_minimal(fam, pattern)

        monkeypatch.setattr("confmine.miner.anchor_minimal", counted)
        rng = random.Random(2012)
        for _ in range(4):
            for fam in family_kinds(rng):
                ctx = random_context(rng, fam.universe, max_objects=6)
                for abstraction in abstraction_kinds(rng, ctx.objects.size):
                    cfg = cm.MinerConfig(family=fam, context=ctx, abstraction=abstraction)
                    calls = 0
                    trace = list(cm.mine_trace(cfg))
                    assert calls == sum(
                        isinstance(ev, (MineEvent, PruneEvent)) for ev in trace
                    )

    @staticmethod
    def _check_boley_invariants(fam, trace):
        """Boley et al. (TCS 2010): a parent is emitted before its child, and
        every prune repeats an earlier emission and names a true blocker.  A
        minimal blocker is the closure's anchor, a minimal before the root of
        the subtree the prune happens in."""
        # the root minimal of each event's subtree: the next MinimalEvent's
        roots = []
        root = None
        for ev in reversed(trace):
            if isinstance(ev, MinimalEvent):
                root = ev.minimal
            roots.append(root)
        roots.reverse()
        emitted: set[int] = set()
        processed: set[int] = set()
        for ev, root in zip(trace, roots):
            if isinstance(ev, MinimalEvent):
                processed.add(ev.minimal)
                continue
            parent = ev.parent_intent
            if parent is not None:
                assert parent in emitted
            if isinstance(ev, MineEvent):
                q = ev.concept.intent
                if parent is not None:
                    assert is_subset(parent, q) and parent != q
                emitted.add(q)
                continue
            assert ev.closure in emitted
            # the anchor is the only blocker: a closure the item exclusion
            # mask would block repeats an abstract support closed in the same
            # subtree, and is never computed
            assert ev.blocked_by_item is None
            assert is_subset(ev.blocked_by_minimal, ev.closure)
            assert ev.blocked_by_minimal in processed
            assert ev.blocked_by_minimal == anchor_minimal(fam, ev.closure)
            assert ev.blocked_by_minimal < root


class TestClosuresRememberedBySupport:
    """Differential test against ``randomized.reference_mine_trace``, the
    traversal with the item exclusion mask and no remembered closure, on
    random instances of every family kind under every abstraction kind."""

    ROUNDS = 100  # 300 instances of each family kind, 600 of each abstraction kind

    def test_random_instances(self, monkeypatch):
        supports: list[int] = []

        def recording(cfg, pattern, support):
            supports.append(support)
            return close_pattern(cfg, pattern, support)

        monkeypatch.setattr("confmine.miner.close_pattern", recording)
        rng = random.Random(2023)
        instances = 0
        for _ in range(self.ROUNDS):
            for fam in family_kinds(rng):
                ctx = random_context(rng, fam.universe, max_objects=6)
                for abstraction in abstraction_kinds(rng, ctx.objects.size):
                    cfg = cm.MinerConfig(family=fam, context=ctx, abstraction=abstraction)
                    reference = list(reference_mine_trace(cfg))
                    trace = []
                    for ev in cm.mine_trace(cfg):
                        trace.append(ev)
                        if isinstance(ev, MinimalEvent):
                            # the closures of this minimal's subtree, root included
                            assert len(set(supports)) == len(supports)
                            supports.clear()
                    self._check_against_reference(trace, reference)
                    instances += 1
        assert instances == 1800

    def test_acceptance_09_instance(self):
        cfg = random_vertex_instance(2024, 20, 30, 50)
        self._check_against_reference(list(cm.mine_trace(cfg)), list(reference_mine_trace(cfg)))

    @staticmethod
    def _check_against_reference(trace, reference):
        def kept(events):
            return [ev for ev in events if isinstance(ev, (MineEvent, MinimalEvent))]

        # identical emissions and bookkeeping, each kind told apart by type
        assert [type(ev) for ev in kept(trace)] == [type(ev) for ev in kept(reference)]
        assert kept(trace) == kept(reference)
        # the prunes left are a subsequence of the reference's
        ref_prunes = iter(ev for ev in reference if isinstance(ev, PruneEvent))
        for ev in trace:
            if isinstance(ev, PruneEvent):
                assert any(ev == ref for ref in ref_prunes)


class AssertingProjection(cm.PatternFamily):
    """A family that answers as ``inner`` does, except that its ``_project``
    asserts the two argument checks ``project(..., checked=False)`` skips."""

    def __init__(self, inner):
        self.inner = inner
        self.universe = inner.universe

    def contains(self, pattern):
        return self.inner.contains(pattern)

    def minimals(self):
        return self.inner.minimals()

    def members(self):
        return self.inner.members()

    def augmentations(self, pattern):
        return self.inner.augmentations(pattern)

    def strongly_accessible(self):
        return self.inner.strongly_accessible()

    def _project(self, member, x):
        assert self.inner.contains(member), "unchecked projection base is not a member"
        assert is_subset(member, x), "unchecked projection argument misses a base item"
        return self.inner._project(member, x)


class CountingAugmentations(AssertingProjection):
    """``AssertingProjection`` that also counts its ``augmentations`` calls."""

    def __init__(self, inner):
        super().__init__(inner)
        self.augmentation_calls = 0

    def augmentations(self, pattern):
        self.augmentation_calls += 1
        return super().augmentations(pattern)


# Each public closure route that checks its arguments, called as (config,
# pattern, abstract support); both keep the default ``checked=True``.
CLOSURE_ROUTES = {
    "closure": lambda cfg, p, s: cm.closure(cfg.context, cfg.family, p, s),
    "support_closure": lambda cfg, p, s: cm.support_closure(cfg.context, cfg.family, p),
}


class TestUncheckedProjection:
    """The miner projects its own members with ``checked=False``; every other
    caller keeps the argument checks."""

    def test_miner_projects_only_valid_arguments(self, monkeypatch):
        rng = random.Random(2019)
        for _ in range(8):
            for inner in family_kinds(rng):
                fam = AssertingProjection(inner)
                ctx = random_context(rng, fam.universe, max_objects=6)
                for abstraction in abstraction_kinds(rng, ctx.objects.size):
                    cfg = cm.MinerConfig(family=fam, context=ctx, abstraction=abstraction)
                    unchecked = list(cm.mine_trace(cfg))
                    with monkeypatch.context() as m:
                        # every projection checked, as before the keyword existed
                        m.setattr(
                            "confmine.miner.close_pattern",
                            lambda cfg, pattern, support: cm.closure(
                                cfg.context, cfg.family, pattern, support
                            ),
                        )
                        checked = list(cm.mine_trace(cfg))
                    assert unchecked == checked

    def test_wrapper_catches_invalid_arguments(self, wedge_family, wedge_universe):
        u = wedge_universe
        fam = AssertingProjection(wedge_family)
        with pytest.raises(AssertionError, match="not a member"):
            fam.project(u.mask("a"), u.full_mask, checked=False)
        with pytest.raises(AssertionError, match="misses a base item"):
            fam.project(u.mask("ab"), u.mask("ad"), checked=False)

    @pytest.mark.parametrize("route", sorted(CLOSURE_ROUTES))
    def test_non_member_rejected(self, route, wedge_family, wedge_context, wedge_universe):
        cfg = cm.MinerConfig(family=wedge_family, context=wedge_context)
        non_member = wedge_universe.mask("a")
        with pytest.raises(ValueError, match="must belong to the family"):
            CLOSURE_ROUTES[route](cfg, non_member, cm.extension(cfg.context, non_member))

    # support_closure computes the support itself, whose intension holds the base
    @pytest.mark.parametrize("route", ["closure"])
    def test_argument_missing_a_base_item_rejected(
        self, route, wedge_family, wedge_context, wedge_universe
    ):
        cfg = cm.MinerConfig(family=wedge_family, context=wedge_context)
        # support: every object, whose intension a d misses the base's b
        with pytest.raises(ValueError, match="must contain the base"):
            CLOSURE_ROUTES[route](cfg, wedge_universe.mask("ab"), cfg.context.objects.full_mask)


class TestOneAugmentationListingPerEmission:
    """Every emitted concept gets a frame, so the miner lists augmentations
    once per emission; an empty-support concept closes to a local top, which
    has no augmentation, so its frame needs no guard."""

    def test_random_instances(self):
        rng = random.Random(2019)
        local_tops = 0
        for _ in range(8):
            for inner in family_kinds(rng):
                fam = CountingAugmentations(inner)
                ctx = random_context(rng, fam.universe, max_objects=6)
                for abstraction in abstraction_kinds(rng, ctx.objects.size):
                    cfg = cm.MinerConfig(family=fam, context=ctx, abstraction=abstraction)
                    fam.augmentation_calls = 0
                    concepts = list(cm.mine(cfg))
                    assert fam.augmentation_calls == len(concepts)
                    for c in concepts:
                        if c.extent == 0:
                            local_tops += 1
                            assert inner.augmentations(c.intent) == []
        assert local_tops  # the draw reaches empty-support concepts


class TestDeepTraversal:
    def test_path_deeper_than_the_recursion_limit(self):
        # Object i holds the prefix a1..ai, so the closed patterns are the n
        # prefixes, each one item longer than its parent: a tree of depth n.
        n = sys.getrecursionlimit() + 100
        fam = cm.KGapWordFamily(n, 1)
        ctx = cm.ObjectContext(
            cm.Universe([f"o{i}" for i in range(1, n + 1)]),
            tuple((1 << i) - 1 for i in range(1, n + 1)),
            fam.universe,
        )
        cfg = cm.MinerConfig(family=fam, context=ctx)
        mined = intents(cm.mine(cfg))
        assert mined == [(1 << i) - 1 for i in range(1, n + 1)]
        parents = [ev.parent_intent for ev in cm.mine_trace(cfg) if isinstance(ev, MineEvent)]
        assert parents == [None] + mined[:-1]
