"""Seeded instance generator for the benchmark workloads.

Every workload is a suite of small instances.  A graph is a random regular
graph (a Hamiltonian cycle through a random vertex order plus ``degree - 2``
random perfect matchings); each suite position has its own fixed graph, and
the seed relabels its vertices and draws the object rows, each of which holds
a fixed number of items.  Fixing graphs, degree and row size keeps the amount
of work close from seed to seed, so figures compare across seeds; averaging
over the suite evens out what variation remains.

Instances are written in the CLI file formats; the program sees only those
files.  The verifier reads the same ``Instance`` objects, never the program's
parsed structures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Shape:
    """Size and CLI options of one workload's instances."""

    command: str  # "mine" or "basis"
    vertices: int
    degree: int
    objects: int
    row_items: int
    edge_mode: bool = False
    min_size: int = 1
    min_support: int | None = None
    suite_size: int = 12  # instances in one run
    memory_instances: int = 2  # leading instances whose peak memory is taken


# Instances are small (50-200 ms per CLI invocation on a 2-core machine) and
# numerous, so a run holds many invocations of every instance and the suite
# average of the work barely moves from seed to seed: over eight seeds the
# interquartile spread of the suite's Python call count is 1.7-5.7 % of its
# median, depending on the workload.  Why each workload exists and which layer it loads is
# recorded in BENCHMARK.json.
WORKLOADS: dict[str, Shape] = {
    "vertex-support": Shape("mine", vertices=12, degree=3, objects=300, row_items=7),
    "edge-augment": Shape(
        "mine", vertices=16, degree=4, objects=9, row_items=26, edge_mode=True, suite_size=16
    ),
    "minsize-anchor": Shape(
        "mine", vertices=24, degree=4, objects=100, row_items=11, min_size=4, min_support=5,
        suite_size=24,
    ),
    "basis-classes": Shape("basis", vertices=12, degree=3, objects=16, row_items=8, suite_size=16),
}


@dataclass(frozen=True)
class Instance:
    """One generated instance: the graph, the context rows and the CLI options."""

    shape: Shape
    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    objects: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]  # item names per object

    @property
    def items(self) -> tuple[str, ...]:
        """Item names in the order the CLI indexes them."""
        if self.shape.edge_mode:
            return tuple(map(edge_label, range(len(self.edges))))
        return self.vertices

    def graph_text(self) -> str:
        lines = [f"v {v}" for v in self.vertices]
        lines += [
            f"e {self.vertices[a]} {self.vertices[b]} {edge_label(i)}"
            for i, (a, b) in enumerate(self.edges)
        ]
        return "\n".join(lines) + "\n"

    def context_text(self) -> str:
        return "".join(f"{o}: {' '.join(r)}\n" for o, r in zip(self.objects, self.rows))

    def write(self, directory: Path) -> list[str]:
        """Write the instance files and return the CLI arguments that load them."""
        directory.mkdir(parents=True, exist_ok=True)
        graph, context = directory / "instance.graph", directory / "instance.ctx"
        graph.write_text(self.graph_text(), encoding="utf-8")
        context.write_text(self.context_text(), encoding="utf-8")
        shape = self.shape
        argv = [shape.command, "--graph", str(graph), "--context", str(context)]
        if shape.edge_mode:
            argv.append("--edge-mode")
        if shape.min_size != 1:
            argv += ["--min-size", str(shape.min_size)]
        if shape.min_support is not None:
            argv += ["--min-support", str(shape.min_support)]
        if shape.command == "basis":
            argv += ["--budget", str(1 << 30)]
        return argv


def edge_label(i: int) -> str:
    return f"e{i}"


def regular_graph(rng: random.Random, n: int, degree: int) -> tuple[tuple[int, int], ...]:
    """A Hamiltonian cycle plus ``degree - 2`` perfect matchings, no repeated edge."""
    if n % 2 or degree < 2:
        raise ValueError("need an even vertex count and degree at least 2")
    order = list(range(n))
    rng.shuffle(order)
    edges = {frozenset((order[i], order[(i + 1) % n])) for i in range(n)}
    for _ in range(degree - 2):
        for _attempt in range(1000):
            rng.shuffle(order)
            matching = {frozenset(order[i : i + 2]) for i in range(0, n, 2)}
            if not matching & edges:
                edges |= matching
                break
        else:
            raise ValueError("could not place a disjoint matching")
    return tuple(sorted(tuple(sorted(e)) for e in edges))


def generate(shape: Shape, graph_seed: str, seed: str | int) -> Instance:
    """An instance on the graph drawn from ``graph_seed``, relabelled and given
    object rows from ``seed``."""
    edges = regular_graph(random.Random(graph_seed), shape.vertices, shape.degree)
    rng = random.Random(seed)
    perm = list(range(shape.vertices))
    rng.shuffle(perm)
    edges = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
    vertices = tuple(f"v{i}" for i in range(shape.vertices))
    names = tuple(map(edge_label, range(len(edges)))) if shape.edge_mode else vertices
    objects = tuple(f"o{i}" for i in range(shape.objects))
    rows = tuple(
        tuple(names[i] for i in sorted(rng.sample(range(len(names)), shape.row_items)))
        for _ in objects
    )
    return Instance(shape, vertices, edges, objects, rows)


def suite(workload: str, seed: int) -> list[Instance]:
    """The instances one run measures.

    Suite position k always uses the same graph, so the seed changes vertex
    labels and object rows but not the graph shapes: runs on different seeds
    then do comparable amounts of work.
    """
    shape = WORKLOADS[workload]
    return [
        generate(shape, f"{workload}:graph:{k}", f"{workload}:{seed}:{k}")
        for k in range(shape.suite_size)
    ]
