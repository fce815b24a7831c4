from pathlib import Path

import pytest

import confmine as cm
from confmine.families import ExplicitFamily

DATA = Path(__file__).parent / "data"


def read_lines(name: str) -> list[str]:
    return (DATA / name).read_text().splitlines()


def build_context(universe: cm.Universe, rows: dict[str, str]) -> cm.ObjectContext:
    names = tuple(rows)
    descriptions = tuple(universe.mask(items.split()) for items in rows.values())
    return cm.ObjectContext(cm.Universe(names), descriptions, universe)


@pytest.fixture
def quad_graph() -> cm.GraphSpec:
    return cm.load_graph(read_lines("quad.graph"))


@pytest.fixture
def quad_edge_family(quad_graph) -> cm.ConnectedEdgeFamily:
    return cm.ConnectedEdgeFamily(quad_graph)


@pytest.fixture
def quad_context(quad_edge_family) -> cm.ObjectContext:
    u = quad_edge_family.universe
    return build_context(u, {"o1": "a b", "o2": "a b c", "o3": "a b c d"})


@pytest.fixture
def five_universe() -> cm.Universe:
    return cm.Universe(["a", "b", "c", "d"])


@pytest.fixture
def five_family(five_universe) -> ExplicitFamily:
    u = five_universe
    return ExplicitFamily(
        [u.mask("a"), u.mask("b"), u.mask("abc"), u.mask("abd"), u.mask("abcd")], u
    )


@pytest.fixture
def five_context(five_universe) -> cm.ObjectContext:
    return build_context(five_universe, {"o1": "a b", "o2": "a b c", "o3": "a b c d"})


@pytest.fixture
def pair_abstraction() -> cm.ExtensionalAbstraction:
    # generators {o1,o2} and {o1,o3} over three objects
    return cm.ExtensionalAbstraction.from_generators([0b011, 0b101])


@pytest.fixture
def wedge_universe() -> cm.Universe:
    return cm.Universe(["a", "b", "c", "d", "e"])


@pytest.fixture
def wedge_family(wedge_universe) -> ExplicitFamily:
    u = wedge_universe
    return ExplicitFamily(
        [u.mask(p) for p in ["ab", "ac", "abc", "abd", "acd", "abcd"]], u
    )


@pytest.fixture
def wedge_context(wedge_universe) -> cm.ObjectContext:
    return build_context(
        wedge_universe, {"o1": "a b d e", "o2": "a b c d", "o3": "a c d"}
    )
