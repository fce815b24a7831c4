"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 05 carries a strict xfail: the stated expected value for the
internal basis of that instance contradicts the min-max definition itself (the
premise and conclusion of a basis implication must share a support set); the
companion test pins the definition-derived value.
"""

import random
import time

import pytest

import confmine as cm
from confmine.families import ExplicitFamily
from confmine.miner import MineEvent, MinimalEvent, PruneEvent
from confmine.oracle import family_poset, materialize, oracle_closed_set
from confmine.order import FiniteLattice, OperatorMap, powerset_lattice
from confmine.patterns import is_subset, iter_indices

from conftest import build_context
from randomized import (
    meet_close,
    random_abstraction,
    random_context,
    random_explicit_subconfluence,
    random_graph,
    random_lattice,
    random_subconfluence_masks,
    random_subset,
    random_vertex_instance,
)


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {num:02d} {name}: {status}{suffix}")


def quad_instance():
    g = cm.GraphSpec.build(
        ("1", "2", "3", "4"),
        [("1", "2", "a"), ("3", "4", "b"), ("2", "3", "c"), ("2", "4", "d")],
    )
    fam = cm.ConnectedEdgeFamily(g)
    u = fam.universe
    ctx = build_context(u, {"o1": "a b", "o2": "a b c", "o3": "a b c d"})
    return fam, ctx


def five_instance():
    u = cm.Universe(["a", "b", "c", "d"])
    fam = ExplicitFamily([u.mask(p) for p in ("a", "b", "abc", "abd", "abcd")], u)
    ctx = build_context(u, {"o1": "a b", "o2": "a b c", "o3": "a b c d"})
    return u, fam, ctx


def wedge_instance():
    u = cm.Universe(["a", "b", "c", "d", "e"])
    fam = ExplicitFamily(
        [u.mask(p) for p in ("ab", "ac", "abc", "abd", "acd", "abcd")], u
    )
    ctx = build_context(u, {"o1": "a b d e", "o2": "a b c d", "o3": "a c d"})
    return u, fam, ctx


def test_acceptance_01_connected_edge_concepts():
    fam, ctx = quad_instance()
    u = fam.universe
    start = time.perf_counter()
    cc = cm.build_concept_confluence(ctx, fam)
    elapsed = time.perf_counter() - start
    got = {(u.format(c.intent), ctx.objects.format(c.extent)) for c in cc}
    expected = {
        ("a", "o1 o2 o3"),
        ("b", "o1 o2 o3"),
        ("a b c", "o2 o3"),
        ("a b c d", "o3"),
    }
    ok = got == expected and elapsed < 1.0
    report(1, "connected-edge concept confluence", ok, f"{elapsed * 1000:.1f} ms")
    assert got == expected
    assert elapsed < 1.0


def test_acceptance_02_support_closures():
    u, fam, ctx = five_instance()
    got = tuple(
        u.format(cm.support_closure(ctx, fam, u.mask(p)))
        for p in ("a", "b", "abc", "abd", "abcd")
    )
    expected = ("a", "b", "a b c", "a b c d", "a b c d")
    report(2, "support closures", got == expected, " ".join(got))
    assert got == expected


def test_acceptance_03_abstract_support_closures():
    u, fam, ctx = five_instance()
    abstraction = cm.ExtensionalAbstraction.from_generators([0b011, 0b101])
    got = tuple(
        u.format(cm.closure(ctx, fam, t, abstraction.apply(cm.extension(ctx, t))))
        for t in map(u.mask, ("a", "b", "abc", "abd", "abcd"))
    )
    expected = ("a", "b", "a b c d", "a b c d", "a b c d")
    report(3, "abstract support closures", got == expected, " ".join(got))
    assert got == expected


def test_acceptance_04_trace_with_pruning():
    u, fam, ctx = wedge_instance()
    cfg = cm.MinerConfig(family=fam, context=ctx)
    trace = []
    for ev in cm.mine_trace(cfg):
        if isinstance(ev, MineEvent):
            trace.append(("emit", u.format(ev.concept.intent)))
        elif isinstance(ev, PruneEvent):
            trace.append(("prune", u.format(ev.closure), u.format(ev.blocked_by_minimal)))
        elif isinstance(ev, MinimalEvent):
            trace.append(("minimal", u.format(ev.minimal)))
    golden = [
        ("emit", "a b d"),
        ("emit", "a b c d"),
        ("minimal", "a b"),
        ("emit", "a c d"),
        ("prune", "a b c d", "a b"),
        ("minimal", "a c"),
    ]
    emitted = [t[1] for t in trace if t[0] == "emit"]
    ok = trace == golden and sorted(emitted) == ["a b c d", "a b d", "a c d"]
    report(4, "traversal trace with exclusion pruning", ok)
    assert trace == golden


def _basis_parts():
    u, fam, ctx = five_instance()
    basis = cm.minmax_basis(ctx, fam, materialize(fam))
    internal = {
        (u.format(i.premise), u.format(i.conclusion))
        for i in basis
        if i.kind == "internal"
    }
    external = {
        (u.format(i.premise), u.format(i.conclusion))
        for i in basis
        if i.kind == "external"
    }
    return internal, external


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the stated internal basis {abc -> abcd} is inconsistent with the "
        "min-max definition: ext(abc)={o2,o3} differs from ext(abcd)={o3}, so "
        "the pair is not even a valid implication; the definition yields "
        "{abd -> abcd} (see test_acceptance_05_minmax_basis_derived)"
    ),
)
def test_acceptance_05_minmax_basis_literal():
    internal, external = _basis_parts()
    ok = internal == {("a b c", "a b c d")} and external == {("a", "b"), ("b", "a")}
    report(5, "min-max basis (literal stated value)", ok, "documented defect, expected to fail")
    assert internal == {("a b c", "a b c d")}
    assert external == {("a", "b"), ("b", "a")}


def test_acceptance_05_minmax_basis_derived():
    internal, external = _basis_parts()
    ok = internal == {("a b d", "a b c d")} and external == {("a", "b"), ("b", "a")}
    report(5, "min-max basis (definition-derived)", ok)
    assert internal == {("a b d", "a b c d")}
    assert external == {("a", "b"), ("b", "a")}


def test_acceptance_06_subconfluence_rejection():
    u = cm.Universe(["a", "b", "c", "d"])
    bad = [0, u.mask("ab"), u.mask("ac")]
    with pytest.raises(cm.NotSubconfluenceError) as exc:
        ExplicitFamily(bad, u)
    witness_ok = exc.value.witness == (0, u.mask("ab"), u.mask("ac"))

    ctx = cm.ObjectContext(cm.Universe(("o",)), (u.mask("abcd"),), u)
    try:
        cm.oracle_closure(ctx, bad, cm.ExtensionalAbstraction(), 0)
        undefined_ok = False
        maximals = ()
    except cm.ClosureUndefinedError as err:
        maximals = set(err.maximals)
        undefined_ok = maximals == {u.mask("ab"), u.mask("ac")}

    verdict = cm.support_closure_existence_check(bad, u)
    ok = witness_ok and undefined_ok and not verdict.exists
    report(6, "non-subconfluence rejected and closure undefined", ok)
    assert witness_ok
    assert undefined_ok
    assert not verdict.exists


# --- criterion 7: randomized property suites --------------------------------

def _suite_operator_laws(rng, runs):
    for _ in range(runs):
        lat = random_lattice(rng)
        n = lat.n
        if rng.random() < 0.5:
            table = [rng.randrange(n) for _ in range(n)]
        else:
            members = random_subset(rng, n, force=lat.top)
            op, _ = cm.closure_from_subset(lat.poset, meet_close(lat, members))
            table = list(op.table)
        op = OperatorMap(lat.poset, table)
        cls = cm.classify_operator(op)
        p = lat.poset
        monotone = all(
            p.leq(table[i], table[j])
            for i in range(n)
            for j in iter_indices(p.up[i])
        )
        idempotent = all(table[table[i]] == table[i] for i in range(n))
        extensive = all(p.leq(i, table[i]) for i in range(n))
        intensive = all(p.leq(table[i], i) for i in range(n))
        if monotone and idempotent and extensive:
            assert cls.kind == "closure"
        elif monotone and idempotent and intensive:
            assert cls.kind == "interior"
        else:
            assert cls.kind == "neither"
        assert cls.is_closure == (monotone and idempotent and extensive)
        assert cls.is_interior == (monotone and idempotent and intensive)
    return runs


def _suite_meet_closed_iff(rng, runs):
    for _ in range(runs):
        lat = random_lattice(rng)
        members = random_subset(rng, lat.n, force=lat.top if rng.random() < 0.5 else None)
        verdict = cm.is_meet_closed(lat, members)
        op, witness = cm.closure_from_subset(lat.poset, members)
        assert bool(verdict) == (op is not None)
        if op is not None:
            assert op.range_mask() == members
            assert cm.classify_operator(op).kind == "closure"
        else:
            assert witness is not None
        dual = cm.is_join_closed(lat, members)
        iop, _ = cm.interior_from_subset(lat.poset, members)
        assert bool(dual) == (iop is not None)
    return runs


def _suite_locally_meet_closed_iff(rng, runs):
    for _ in range(runs):
        poset = family_poset(random_subconfluence_masks(rng, 5))
        conf = cm.ExplicitConfluence(poset)
        if rng.random() < 0.5:
            members = random_subset(rng, poset.n)
            for top in set(conf.local_tops.values()):
                if rng.random() < 0.8:
                    members |= 1 << top
        else:
            # a genuine closure range: close a random subset locally
            members = random_subset(rng, poset.n)
            for top in set(conf.local_tops.values()):
                members |= 1 << top
            members = _locally_meet_close(conf, members)
        verdict = cm.is_closed_under_local_meet(conf, members)
        if verdict:
            op = cm.closure_from_local_meet_subset(conf, members)
            assert cm.classify_operator(op).kind == "closure"
            assert op.range_mask() == members
            sub, _ = poset.restrict(members)
            assert cm.is_confluence(sub)
        else:
            with pytest.raises(cm.NotLocallyMeetClosedError):
                cm.closure_from_local_meet_subset(conf, members)
    return runs


def _locally_meet_close(conf, members):
    p = conf.carrier
    changed = True
    while changed:
        changed = False
        for t in range(p.n):
            elems = list(iter_indices(members & p.up[t]))
            for a, x in enumerate(elems):
                for y in elems[a:]:
                    v = conf.local_meet(t, x, y)
                    if not (members >> v) & 1:
                        members |= 1 << v
                        changed = True
    return members


def _suite_subconfluence_three_way(rng, runs):
    host = powerset_lattice(4)
    for _ in range(runs):
        members = 0
        for _ in range(rng.randint(1, 6)):
            members |= 1 << rng.randint(0, 15)
        form_join = bool(cm.is_subconfluence(host, members))
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
        sub, _ = host.poset.restrict(members)
        form_order = bool(cm.is_confluence(sub))
        if form_order:
            conf = cm.ExplicitConfluence(sub)
            for x in range(sub.n):
                for y in range(x, sub.n):
                    if sub.down[x] & sub.down[y]:
                        j = conf.local_join(x, y)
                        if j is None or sub.ids[j] != sub.ids[x] | sub.ids[y]:
                            form_order = False
        assert form_join == form_interior == form_order
    return runs


def _random_family(rng):
    from confmine.families import FamilyError

    while True:
        kind = rng.randrange(5)
        try:
            if kind == 0:
                return cm.ConnectedVertexFamily(random_graph(rng, max_vertices=8))
            if kind == 1:
                g = random_graph(rng, max_vertices=5)
                return cm.ConnectedEdgeFamily(g)
            if kind == 2:
                return cm.KGapWordFamily(rng.randint(2, 8), rng.randint(1, 3))
            if kind == 3:
                g = random_graph(rng, max_vertices=7)
                return cm.ConnectedVertexFamily(g, min_size=rng.randint(2, 3))
            return random_explicit_subconfluence(
                rng, n_items=4, require_strong_accessibility=True
            )
        except FamilyError:
            continue  # e.g. no connected set of the drawn size; redraw


def _suite_projection_coherence(rng, runs):
    for _ in range(runs):
        fam = _random_family(rng)
        members = materialize(fam)
        full = fam.universe.full_mask
        for _ in range(12):
            t = rng.choice(members)
            q = rng.choice([x for x in members if is_subset(x, t)])
            x = t | rng.randrange(full + 1)
            assert fam.project(t, x) == fam.project(q, x)
    return runs


def _suite_support_closure_laws(rng, runs):
    done = 0
    while done < runs:
        fam = _random_family(rng)
        members = materialize(fam)
        if len(members) > 40:
            continue  # keep the operator-table classification quadratic-cheap
        ctx = random_context(rng, fam.universe, max_objects=12)
        abstraction = random_abstraction(rng, ctx.objects.size)
        poset = family_poset(members)
        table = [
            poset.index(cm.closure(ctx, fam, t, abstraction.apply(cm.extension(ctx, t))))
            for t in poset.ids
        ]
        assert cm.classify_operator(OperatorMap(poset, table)).kind == "closure"
        done += 1
    return done


def _suite_extent_decomposition(rng, runs):
    for _ in range(runs):
        fam = cm.ConnectedVertexFamily(random_graph(rng, max_vertices=5))
        ctx = random_context(rng, fam.universe, max_objects=8)
        equal, only_left, only_right = cm.verify_extent_decomposition(
            ctx, fam, materialize(fam)
        )
        assert equal, (only_left, only_right)
    return runs


def _suite_miner_vs_oracle(rng, runs):
    for _ in range(runs):
        fam = _random_family(rng)
        ctx = random_context(rng, fam.universe, max_objects=12)
        abstraction = random_abstraction(rng, ctx.objects.size)
        cfg = cm.MinerConfig(family=fam, context=ctx, abstraction=abstraction)
        mined = [c.intent for c in cm.mine(cfg)]
        assert len(mined) == len(set(mined))
        members = materialize(fam)
        assert set(mined) == oracle_closed_set(ctx, members, abstraction)
    return runs


def test_acceptance_07_randomized_property_suites():
    rng = random.Random(20240811)
    total = 0
    total += _suite_operator_laws(rng, 150)
    total += _suite_meet_closed_iff(rng, 150)
    total += _suite_locally_meet_closed_iff(rng, 150)
    total += _suite_subconfluence_three_way(rng, 150)
    total += _suite_projection_coherence(rng, 100)
    total += _suite_support_closure_laws(rng, 150)
    total += _suite_extent_decomposition(rng, 100)
    total += _suite_miner_vs_oracle(rng, 150)
    ok = total >= 1000
    report(7, "randomized property suites", ok, f"{total} instances, zero failures")
    assert total >= 1000


def test_acceptance_08_lattice_degeneration():
    rng = random.Random(4242)
    checked = 0
    for n_items in (4, 5):
        u = cm.Universe([chr(ord("a") + i) for i in range(n_items)])
        fam = ExplicitFamily(range(1 << n_items), u)
        for _ in range(55):
            ctx = random_context(rng, u, max_objects=8)
            cfg = cm.MinerConfig(family=fam, context=ctx)
            mined = {c.intent for c in cm.mine(cfg)}
            classical = {
                cm.intension(ctx, cm.extension(ctx, t)) for t in range(1 << n_items)
            }
            assert mined == classical
            checked += 1
    ok = checked >= 100
    report(8, "single-minimal degeneration to closed itemsets", ok, f"{checked} contexts")
    assert checked >= 100


def test_acceptance_09_performance_sanity():
    cfg = random_vertex_instance(2024, 20, 30, 50)
    start = time.perf_counter()
    mined = [c.intent for c in cm.mine(cfg)]
    elapsed = time.perf_counter() - start
    duplicate_free = len(mined) == len(set(mined))
    ok = elapsed < 10.0 and duplicate_free
    report(
        9,
        "20-vertex mining performance",
        ok,
        f"{len(mined)} closed patterns in {elapsed:.2f} s",
    )
    assert duplicate_free
    assert elapsed < 10.0
