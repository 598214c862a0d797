import json
import random
from pathlib import Path

import pytest

from elltowers.graphs import MultiGraph, build_graph, validate_base
from elltowers.voltage import (
    VoltageSpec,
    check_tower_connectivity,
    default_section,
    load_tower_spec,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

FIXTURE_NAMES = (
    "bouquet2_ell2",
    "bouquet4_ell2_parallel",
    "bouquet4_ell2_skew",
    "bouquet2_ell3",
    "bouquet3_ell3",
)


def fixture_spec(name: str) -> VoltageSpec:
    with open(FIXTURES / f"{name}.json", "r", encoding="utf-8") as fh:
        return load_tower_spec(json.load(fh))


@pytest.fixture(scope="session")
def all_fixture_specs():
    return {name: fixture_spec(name) for name in FIXTURE_NAMES}


def random_validated_graph(rng: random.Random, max_vertices: int = 8) -> MultiGraph:
    """Random connected multigraph with min valency >= 2 and chi != 0."""
    n = rng.randint(1, max_vertices)
    edges = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        edges.append((order[i], order[rng.randrange(i)]))
    while True:
        g = build_graph(n, edges) if edges else None
        if g is not None:
            report = validate_base(g)
            if report.ok:
                return g
        a = rng.randrange(n)
        b = rng.randrange(n)
        edges.append((a, b))


def random_connected_spec(rng: random.Random, max_vertices: int = 4, d: int = 2) -> VoltageSpec:
    """Random voltage spec over a small validated base whose whole tower
    is connected (resampled until the cycle-voltage criterion holds)."""
    while True:
        g = random_validated_graph(rng, max_vertices)
        ell = rng.choice((2, 3))
        alpha = tuple(
            tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(g.n_undirected)
        )
        spec = VoltageSpec(g, default_section(g), alpha, ell, d)
        if check_tower_connectivity(spec).ok:
            return spec
