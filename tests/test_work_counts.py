"""Work-count gates: the Python lines the library runs per closure may grow
only slowly with the instance.

Timings on a shared machine drift too much to catch a quadratic step, and a
call count misses loops inside one call, so each gate mines one family shape
at two sizes, counts ``sys.settrace`` line events in frames of
``src/confmine``, and divides by the closures computed (``MineEvent`` plus
``PruneEvent``).  Line counts are exact for one interpreter but differ
between Python versions, so a gate bounds the ratio of the two sizes' figures
within one run, never an absolute count.  Each bound is the ratio measured on
Python 3.11 at seeds 1-3, plus 25 % headroom.
"""

import random

import pytest

from confmine.families import ConnectedEdgeFamily, GraphSpec
from confmine.fca import ObjectContext
from confmine.miner import MinerConfig

from randomized import lines_per_closure, random_minsize_instance, random_vertex_instance


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
