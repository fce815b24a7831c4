"""Work-count gates: the Python lines the library runs per closure may grow
only slowly with the instance, and so may the lines that build a context's
tidsets.

Timings on a shared machine drift too much to catch a quadratic step, and a
call count misses loops inside one call, so each gate runs one shape at two
sizes and counts ``sys.settrace`` line events in frames of ``src/confmine``:
a mining gate divides them by the closures computed (``MineEvent`` plus
``PruneEvent``), and the tidset gate takes them per build.  Line counts are
exact for one interpreter but differ between Python versions, so a gate
bounds the ratio of the two sizes' figures within one run, never an absolute
count.  Each bound is the ratio measured on Python 3.11 at seeds 1-3, plus
25 % headroom.

The memory gates take ``tracemalloc`` peaks the same way: ``traced_peak``
gives a call's peak and what it keeps, and a gate bounds a ratio of two
sizes measured in one run, never absolute bytes.  Each runs one instance:
the tidset sizes do not depend on the random draw, and the basis gate runs
acceptance test 09's seed.
"""

import random
import sys

import pytest

from confmine.families import ConnectedEdgeFamily, GraphSpec
from confmine.fca import ObjectContext
from confmine.implications import minmax_basis
from confmine.miner import MinerConfig
from confmine.oracle import materialize
from confmine.patterns import Universe

from randomized import (
    lines_per_closure,
    random_minsize_instance,
    random_vertex_instance,
    rows_context,
    traced_lines,
    traced_peak,
)


def edge_instance(seed: int, n_vertices: int) -> MinerConfig:
    """Connected edge sets of a cycle plus random chords, 1.5 edges per vertex,
    under 10 objects that each hold an edge with probability 0.6."""
    rng = random.Random(seed)
    pairs = {tuple(sorted((i, (i + 1) % n_vertices))) for i in range(n_vertices)}
    while len(pairs) < 3 * n_vertices // 2:
        pairs.add(tuple(sorted(rng.sample(range(n_vertices), 2))))
    pairs = tuple(sorted(pairs))
    vertices = tuple(f"v{i}" for i in range(n_vertices))
    labels = tuple(f"e{i}" for i in range(len(pairs)))
    fam = ConnectedEdgeFamily(GraphSpec(vertices, pairs, labels))
    descriptions = tuple(
        sum(1 << i for i in range(len(pairs)) if rng.random() < 0.6) for _ in range(10)
    )
    objects = Universe(f"o{i}" for i in range(10))
    return MinerConfig(fam, ObjectContext(objects, descriptions, fam.universe))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_vertex_support_layer_scales_with_objects(seed):
    # 50 -> 200 objects: measured 142-149 -> 178-185 lines, ratio 1.23-1.25
    small = lines_per_closure(random_vertex_instance(seed, 14, 22, 50))
    large = lines_per_closure(random_vertex_instance(seed, 14, 22, 200))
    assert large / small <= 1.55


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_edge_projection_scales_with_the_graph(seed):
    # 12 -> 24 vertices: measured 124-133 -> 148-154 lines, ratio 1.13-1.24
    small = lines_per_closure(edge_instance(seed, 12))
    large = lines_per_closure(edge_instance(seed, 24))
    assert large / small <= 1.6


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_anchor_lookup_scales_with_the_minimals(seed):
    # 24 -> 48 vertices, 396-448 -> 970-1005 minimals: measured 458-552 -> 299-324
    # lines, ratio 0.59-0.66; a scan of every minimal per anchor measured
    # 783-959 -> 985-1,115, ratio 1.16-1.36
    small = lines_per_closure(random_minsize_instance(seed, 24))
    large = lines_per_closure(random_minsize_instance(seed, 48))
    assert large / small <= 1.07


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tidset_build_does_not_grow_with_the_items_per_object(seed):
    # 4 -> 16 items per object: the transposition measured 30 -> 30 lines,
    # ratio 1.0; a loop over every (object, item) pair measured 2,704 ->
    # 9,904, ratio 3.66
    fewer = rows_context(random.Random(seed), 100, 24, 4)
    more = rows_context(random.Random(seed), 100, 24, 16)
    _, small = traced_lines(lambda: fewer.tids)
    _, large = traced_lines(lambda: more.tids)
    assert large / small <= 1.25


def dense_context(n: int, w: int) -> ObjectContext:
    """n objects over w items, each item held with probability 1/2."""
    rng = random.Random(n)
    rows = tuple(rng.getrandbits(w) for _ in range(n))
    objects = Universe(f"o{k}" for k in range(n))
    return ObjectContext(objects, rows, Universe(f"i{k}" for k in range(w)))


def test_tidset_build_holds_one_block_beyond_the_tidsets():
    # 20,000 x 1,000 measured a peak of 6.2 MiB over 2.6 MiB kept, ratio 2.39,
    # and a transient (peak minus kept) of 3.7 and 3.6 MiB at 5,000 and 20,000
    # objects, ratio 0.98; transposing the whole matrix at once measured 15.3
    # and 4.0
    small, large = dense_context(5_000, 1_000), dense_context(20_000, 1_000)
    small_peak, small_kept = traced_peak(lambda: small.tids)
    large_peak, large_kept = traced_peak(lambda: large.tids)
    assert large_peak / large_kept <= 4
    assert (large_peak - large_kept) / (small_peak - small_kept) <= 1.25


def test_basis_working_set_grows_with_the_members():
    # 16/22/40 -> 20/30/50, 8,417 -> 80,998 members: the peak above the member
    # list measured 0.15 -> 1.28 MiB, growth 8.6 against 9.6 for the members,
    # and 0.45 of the member list's own size (the list and its ints) at
    # 20/30/50; holding a sorted and a tuple copy of every class at once
    # measured 0.65
    figures = []
    for spec in ((16, 22, 40), (20, 30, 50)):
        cfg = random_vertex_instance(2024, *spec)
        members = materialize(cfg.family, 100_000)
        cfg.context.tids  # the context's, kept after the call: built before the peak
        peak, _ = traced_peak(lambda: minmax_basis(cfg.context, cfg.family, members))
        listed = sys.getsizeof(members) + sum(map(sys.getsizeof, members))
        figures.append((len(members), peak, listed))
    (few, small_peak, _), (many, large_peak, large_listed) = figures
    assert large_peak / small_peak <= many / few
    assert large_peak / large_listed <= 0.55
