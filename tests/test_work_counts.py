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
"""

import random

import pytest

from confmine.families import ConnectedEdgeFamily, GraphSpec
from confmine.fca import ObjectContext
from confmine.miner import MinerConfig

from randomized import (
    lines_per_closure,
    random_minsize_instance,
    random_vertex_instance,
    rows_context,
    traced_lines,
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
    objects = tuple(f"o{i}" for i in range(10))
    return MinerConfig(fam, ObjectContext(objects, descriptions, fam.universe))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_vertex_support_layer_scales_with_objects(seed):
    # 50 -> 200 objects: measured 126-135 -> 154-164 lines, ratio 1.21-1.24
    small = lines_per_closure(random_vertex_instance(seed, 14, 22, 50))
    large = lines_per_closure(random_vertex_instance(seed, 14, 22, 200))
    assert large / small <= 1.55


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_edge_projection_scales_with_the_graph(seed):
    # 12 -> 24 vertices: measured 113-124 -> 144-148 lines, ratio 1.19-1.27
    small = lines_per_closure(edge_instance(seed, 12))
    large = lines_per_closure(edge_instance(seed, 24))
    assert large / small <= 1.6


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_anchor_lookup_scales_with_the_minimals(seed):
    # 24 -> 48 vertices, 396-448 -> 970-1005 minimals: measured 283-353 -> 242-247
    # lines, ratio 0.70-0.86; a scan of every minimal per anchor measured
    # 442-557 -> 755-827, ratio 1.48-1.79
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
