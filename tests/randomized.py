"""Seeded random structures shared by the test suites: graphs, contexts,
abstractions, subconfluences, and sublattices of a small powerset, one
random family of each kind and one abstraction of each shape, plus the
meet closure used to build closure ranges, a vertex instance written in the
CLI file formats, a minimum-size vertex instance with many minimals, a
context with a fixed number of items per object, the Python lines the
library runs in a call and per closure, the memory a call peaks at and
keeps, and a reference copy of the miner's traversal with the item exclusion
mask.

Imported by the tests; pytest does not collect it.
"""

import random
import sys
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import confmine
from confmine.families import (
    ConnectedEdgeFamily,
    ConnectedVertexFamily,
    ExplicitFamily,
    FamilyError,
    GraphSpec,
    KGapWordFamily,
    is_strongly_accessible,
)
from confmine.fca import (
    ExtensionalAbstraction,
    ObjectContext,
    anchor_minimal,
    closure,
    extension,
)
from confmine.miner import Concept, MinerConfig, MineEvent, MinimalEvent, PruneEvent, mine_trace
from confmine.order import FiniteLattice, powerset_lattice
from confmine.patterns import Universe, is_subset, iter_indices


def random_graph(rng: random.Random, max_vertices: int = 8, edge_prob: float = 0.45) -> GraphSpec:
    n = rng.randint(2, max_vertices)
    vertices = tuple(f"v{i}" for i in range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.append((i, j))
    if not edges:
        edges.append((0, 1))
    labels = tuple(f"e{i}" for i in range(len(edges)))
    return GraphSpec(vertices, tuple(edges), labels)


def random_vertex_instance(
    seed: int, n_vertices: int, n_edges: int, n_objects: int
) -> MinerConfig:
    """Connected vertex sets (``min_size`` 1) of a random graph with exactly
    ``n_edges`` distinct edges, under uniformly random object descriptions.
    Seed 2024 with 20/30/50 is acceptance test 09's instance."""
    rng = random.Random(seed)
    vertices = tuple(f"v{i}" for i in range(n_vertices))
    pairs = set()
    while len(pairs) < n_edges:
        a, b = rng.randrange(n_vertices), rng.randrange(n_vertices)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    labels = tuple(f"e{i}" for i in range(n_edges))
    fam = ConnectedVertexFamily(GraphSpec(vertices, tuple(sorted(pairs)), labels))
    descriptions = tuple(rng.randrange(1 << n_vertices) for _ in range(n_objects))
    objects = Universe(f"o{i}" for i in range(n_objects))
    return MinerConfig(family=fam, context=ObjectContext(objects, descriptions, fam.universe))


def random_minsize_instance(seed: int, n_vertices: int) -> MinerConfig:
    """Connected vertex sets of at least 4 vertices of a random 4-regular graph
    (a Hamiltonian cycle plus two perfect matchings that repeat no edge), under
    100n/24 objects of 11n/24 random vertices each and the frequency
    abstraction 5: many minimals per closure.  ``n_vertices`` must be even."""
    rng = random.Random(seed)
    n = n_vertices
    order = list(range(n))
    rng.shuffle(order)
    edges = {frozenset((order[i], order[(i + 1) % n])) for i in range(n)}
    for _ in range(2):
        while True:
            rng.shuffle(order)
            matching = {frozenset(order[i : i + 2]) for i in range(0, n, 2)}
            if not matching & edges:
                break
        edges |= matching
    pairs = tuple(sorted(tuple(sorted(e)) for e in edges))
    vertices = tuple(f"v{i}" for i in range(n))
    graph = GraphSpec(vertices, pairs, tuple(f"e{i}" for i in range(len(pairs))))
    fam = ConnectedVertexFamily(graph, 4)
    descriptions = tuple(
        sum(1 << i for i in rng.sample(range(n), 11 * n // 24)) for _ in range(100 * n // 24)
    )
    objects = Universe(f"o{i}" for i in range(len(descriptions)))
    return MinerConfig(
        fam, ObjectContext(objects, descriptions, fam.universe), ExtensionalAbstraction.frequency(5)
    )


SOURCE = str(Path(confmine.__file__).parent)


def traced_lines(fn):
    """``fn()``'s result and the ``sys.settrace`` line events in frames of
    ``src/confmine`` while it runs."""
    lines = 0

    def count_lines(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return count_lines

    def on_call(frame, event, arg):
        return count_lines if frame.f_code.co_filename.startswith(SOURCE) else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = fn()
    finally:
        sys.settrace(previous)
    return result, lines


def traced_peak(fn) -> tuple[int, int]:
    """The ``tracemalloc`` peak while ``fn()`` runs and the memory still
    allocated when it returns, its result included, both in bytes allocated
    since the call began; what existed before the call is not counted."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()  # held while measured, so what it keeps counts
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before, kept - before


def lines_per_closure(cfg: MinerConfig) -> float:
    """``traced_lines`` of ``mine_trace``, per closure computed (``MineEvent``
    plus ``PruneEvent``)."""
    events, lines = traced_lines(lambda: list(mine_trace(cfg)))
    closures = sum(type(ev) in (MineEvent, PruneEvent) for ev in events)
    return lines / closures


def write_vertex_instance(
    directory: Path, seed: int, n_vertices: int, n_edges: int, n_objects: int
) -> tuple[Path, Path]:
    """``random_vertex_instance`` in the CLI file formats: writes
    ``instance.graph`` and ``instance.ctx`` under ``directory`` and returns
    their paths."""
    cfg = random_vertex_instance(seed, n_vertices, n_edges, n_objects)
    graph, ctx = cfg.family.graph, cfg.context
    names = graph.vertices
    graph_path = directory / "instance.graph"
    graph_path.write_text(
        "".join(f"v {v}\n" for v in names)
        + "".join(
            f"e {names[a]} {names[b]} {label}\n"
            for (a, b), label in zip(graph.edges, graph.edge_labels)
        )
    )
    ctx_path = directory / "instance.ctx"
    ctx_path.write_text(
        "".join(
            f"{o}: {' '.join(names[i] for i in iter_indices(d))}\n"
            for o, d in zip(ctx.objects.names, ctx.descriptions)
        )
    )
    return graph_path, ctx_path


def random_context(
    rng: random.Random, universe: Universe, max_objects: int = 12
) -> ObjectContext:
    n = rng.randint(1, max_objects)
    full = universe.full_mask
    descriptions = []
    for _ in range(n):
        d = 0
        for i in range(universe.size):
            if rng.random() < 0.55:
                d |= 1 << i
        descriptions.append(d & full)
    objects = Universe(f"o{i + 1}" for i in range(n))
    return ObjectContext(objects, tuple(descriptions), universe)


def rows_context(rng: random.Random, n: int, w: int, per_row: int) -> ObjectContext:
    """n objects over w items named ``i0`` .. ``i{w-1}``, each with ``per_row``
    random items."""
    u = Universe([f"i{k}" for k in range(w)])
    rows = tuple(sum(1 << i for i in rng.sample(range(w), per_row)) for _ in range(n))
    return ObjectContext(Universe(f"o{k}" for k in range(n)), rows, u)


def random_abstraction(rng: random.Random, n_objects: int) -> ExtensionalAbstraction:
    roll = rng.random()
    if roll < 0.4:
        return ExtensionalAbstraction()
    if roll < 0.7:
        return ExtensionalAbstraction.frequency(rng.randint(1, max(1, n_objects)))
    generators = []
    for _ in range(rng.randint(1, 4)):
        g = 0
        for i in range(n_objects):
            if rng.random() < 0.5:
                g |= 1 << i
        generators.append(g)
    return ExtensionalAbstraction.from_generators(generators)


def random_vertex_family(rng: random.Random, min_size: int) -> ConnectedVertexFamily:
    while True:
        try:
            return ConnectedVertexFamily(random_graph(rng, max_vertices=6), min_size)
        except FamilyError:
            continue  # no connected vertex set that large


def family_kinds(rng: random.Random):
    """One random family of each kind: vertex with min_size 1-3, edge, k-gap, explicit."""
    for min_size in (1, 2, 3):
        yield random_vertex_family(rng, min_size)
    yield ConnectedEdgeFamily(random_graph(rng, max_vertices=5))
    yield KGapWordFamily(rng.randint(2, 6), rng.randint(1, 3))
    yield random_explicit_subconfluence(rng, n_items=4, require_strong_accessibility=True)


def abstraction_kinds(rng: random.Random, n_objects: int):
    """Identity, a random frequency threshold and random generators."""
    yield ExtensionalAbstraction()
    yield ExtensionalAbstraction.frequency(rng.randint(1, n_objects))
    yield ExtensionalAbstraction.from_generators(
        rng.randrange(1 << n_objects) for _ in range(rng.randint(1, 3))
    )


def random_subconfluence_masks(
    rng: random.Random, n_items: int, n_seeds: int = 4
) -> list[int]:
    """A random subconfluence of the powerset: close seed patterns under pairwise
    union above common members until stable."""
    full = (1 << n_items) - 1
    members = set()
    for _ in range(rng.randint(1, n_seeds)):
        members.add(rng.randint(1, full))
    changed = True
    while changed:
        changed = False
        items = sorted(members)
        for t in items:
            above = [x for x in items if is_subset(t, x)]
            for a, x in enumerate(above):
                for y in above[a + 1 :]:
                    if x | y not in members:
                        members.add(x | y)
                        changed = True
    return sorted(members)


def random_explicit_subconfluence(
    rng: random.Random, n_items: int = 5, require_strong_accessibility: bool = False
) -> ExplicitFamily:
    names = tuple(chr(ord("a") + i) for i in range(n_items))
    universe = Universe(names)
    while True:
        members = random_subconfluence_masks(rng, n_items)
        fam = ExplicitFamily(members, universe)
        if not require_strong_accessibility or is_strongly_accessible(members):
            return fam


def random_sublattice_mask(rng: random.Random, host: FiniteLattice) -> int:
    """A random subset of a lattice closed under meet and join (hence a lattice)."""
    n = host.n
    chosen = {rng.randrange(n) for _ in range(rng.randint(1, 4))}
    changed = True
    while changed:
        changed = False
        items = sorted(chosen)
        for a, i in enumerate(items):
            for j in items[a:]:
                for v in (host.meet(i, j), host.join(i, j)):
                    if v not in chosen:
                        chosen.add(v)
                        changed = True
    mask = 0
    for i in chosen:
        mask |= 1 << i
    return mask


HOST = powerset_lattice(5)


def random_lattice(rng: random.Random) -> FiniteLattice:
    """A random sublattice of the 5-item powerset, reindexed from 0."""
    sub, _ = HOST.poset.restrict(random_sublattice_mask(rng, HOST))
    return FiniteLattice(sub)


def random_subset(rng: random.Random, n: int, force: int | None = None) -> int:
    """A nonempty random element mask over n elements, containing ``force`` if given."""
    mask = 0
    for i in range(n):
        if rng.random() < 0.4:
            mask |= 1 << i
    if force is not None:
        mask |= 1 << force
    return mask or (1 << rng.randrange(n))


def meet_close(lat: FiniteLattice, members: int) -> int:
    """The least superset of ``members`` closed under meets, top included; the
    join closure is the same loop over ``lat.join`` with ``lat.bottom``."""
    changed = True
    while changed:
        changed = False
        elems = list(iter_indices(members))
        for a, i in enumerate(elems):
            for j in elems[a:]:
                v = lat.meet(i, j)
                if not (members >> v) & 1:
                    members |= 1 << v
                    changed = True
    return members | (1 << lat.top)


class ItemPrune(NamedTuple):
    """A closure the reference miner prunes because it holds ``item``, excluded
    by an earlier sibling branch; the miner makes no such prune."""

    closure: int
    parent_intent: int
    item: int


def reference_mine_trace(cfg: MinerConfig):
    """The miner's traversal with the item exclusion mask of Boley et al.
    (TCS 2010) and no closure remembered: every child of every frame is
    closed, and a closure is pruned when its anchor is not the subtree's root
    (a ``PruneEvent``) or when it holds an item excluded by an earlier sibling
    branch (an ``ItemPrune``).  The family must be strongly accessible."""
    fam, ctx, tids = cfg.family, cfg.context, cfg.context.tids

    def close(pattern, extent):
        support = cfg.abstraction.apply(extent)
        return closure(ctx, fam, pattern, support), support

    for m in fam.minimals():
        m_extent = extension(ctx, m)
        p, abstract_extent = close(m, m_extent)
        root_anchor = anchor_minimal(fam, p)
        if root_anchor == m:
            yield MineEvent(Concept(abstract_extent, p, m), None)
            # frames: (closed pattern, carried extent, pending augmentations, excluded items)
            stack = [(p, m_extent, iter(fam.augmentations(p)), 0)] if abstract_extent else []
            while stack:
                pattern, ext, pending, excluded = stack.pop()
                for e in pending:
                    child_extent = ext & tids[e]
                    q, q_extent = close(pattern | (1 << e), child_extent)
                    anchor = anchor_minimal(fam, q)
                    if anchor != m:
                        yield PruneEvent(q, pattern, anchor)
                        continue
                    hit = q & excluded
                    if hit:
                        yield ItemPrune(q, pattern, (hit & -hit).bit_length() - 1)
                        continue
                    yield MineEvent(Concept(q_extent, q, m), pattern)
                    if q_extent == 0:
                        excluded |= 1 << e
                        continue
                    stack.append((pattern, ext, pending, excluded | 1 << e))
                    stack.append((q, child_extent, iter(fam.augmentations(q)), excluded))
                    break
        else:
            yield PruneEvent(p, None, root_anchor)
        yield MinimalEvent(m, root_anchor == m)
