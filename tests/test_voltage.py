import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elltowers.graphs import build_graph
from elltowers.voltage import (
    BudgetExceededError,
    DisconnectedCoverError,
    Section,
    SpecFormatError,
    VoltageSpec,
    check_tower_connectivity,
    default_section,
    derived_graph,
    derived_to_dot,
    load_tower_spec,
    reduce_voltage,
    tower_spec_to_json,
)

from conftest import fixture_spec, random_connected_spec

E1 = fixture_spec("bouquet2_ell2")
E3 = fixture_spec("bouquet4_ell2_skew")
E4 = fixture_spec("bouquet2_ell3")


def pair_multiset(g):
    return Counter(tuple(sorted(p)) for p in g.edge_pairs)


def test_default_section_one_per_orbit():
    for g in (E1.base, build_graph(2, [(0, 1), (0, 1)])):
        s = default_section(g)
        assert len(s.edges) == g.n_undirected
        assert {e >> 1 for e in s.edges} == set(range(g.n_undirected))


def test_reduce_voltage_examples():
    g = build_graph(1, [(0, 0)])
    spec = VoltageSpec(g, default_section(g), ((1, 5),), 2, 2)
    assert reduce_voltage(spec, 2) == ((1, 1),)
    spec3 = VoltageSpec(g, default_section(g), ((2, 3),), 3, 2)
    assert reduce_voltage(spec3, 1) == ((2, 0),)
    assert reduce_voltage(spec3, 0) == ((0, 0),)


def test_derived_layer_one_is_doubled_four_cycle():
    dg = derived_graph(E1, 1)
    assert dg.graph.n_vertices == 4
    assert dg.graph.n_undirected == 8
    # vertex ids follow the group element order (0,0),(0,1),(1,0),(1,1);
    # generators (1,0) and (0,1) pair ids 0-2, 1-3 and 0-1, 2-3, doubled
    expected = Counter({(0, 2): 2, (1, 3): 2, (0, 1): 2, (2, 3): 2})
    assert pair_multiset(dg.graph) == expected


def test_derived_layer_zero_is_the_base():
    dg = derived_graph(E1, 0)
    assert pair_multiset(dg.graph) == pair_multiset(E1.base)
    assert dg.graph.n_vertices == E1.base.n_vertices


def test_derived_layer_one_ell3():
    dg = derived_graph(E4, 1)
    assert dg.graph.n_vertices == 9
    assert dg.graph.n_undirected == 18
    assert set(dg.graph.valencies()) == {4}


def test_euler_characteristic_multiplicative():
    for spec, n in ((E1, 2), (E4, 1), (E3, 1)):
        dg = derived_graph(spec, n)
        assert dg.graph.euler_char == (spec.ell ** (n * spec.d)) * spec.base.euler_char


def test_connectivity_examples():
    assert check_tower_connectivity(E1).ok
    assert check_tower_connectivity(E1).rank == 2
    assert check_tower_connectivity(E3).ok
    g = build_graph(1, [(0, 0), (0, 0)])
    bad = VoltageSpec(g, default_section(g), ((2, 0), (0, 1)), 2, 2)
    report = check_tower_connectivity(bad)
    assert not report.ok
    assert report.rank == 1


def test_connectivity_matches_bfs_on_small_layers():
    g = build_graph(1, [(0, 0), (0, 0)])
    cases = [
        VoltageSpec(g, default_section(g), ((1, 0), (0, 1)), 2, 2),
        VoltageSpec(g, default_section(g), ((2, 0), (0, 1)), 2, 2),
        VoltageSpec(g, default_section(g), ((2, 2), (4, 0)), 2, 2),
        VoltageSpec(g, default_section(g), ((1, 1), (1, 2)), 3, 2),
    ]
    for spec in cases:
        predicted = check_tower_connectivity(spec).ok
        for n in (1, 2):
            # derived_graph raises when its BFS finds the layer disconnected
            try:
                derived_graph(spec, n)
            except DisconnectedCoverError:
                assert not predicted
            else:
                assert predicted


@st.composite
def small_voltage_specs(draw):
    """Bases of 1-6 vertices with loops and parallel edges, connected or
    not, each section edge in a random orientation."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    pairs = []
    if draw(st.booleans()):  # a spanning tree first: most random bases are disconnected
        pairs = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    pairs += draw(st.lists(st.tuples(vertex, vertex), min_size=0 if pairs else 1, max_size=6))
    ell = draw(st.sampled_from((2, 3, 5)))
    d = draw(st.integers(1, 3))
    g = build_graph(n, pairs)
    section = Section(tuple(2 * j + draw(st.integers(0, 1)) for j in range(g.n_undirected)))
    alpha = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * d), min_size=g.n_undirected, max_size=g.n_undirected))
    return VoltageSpec(g, section, tuple(alpha), ell, d)


def layer_is_connected(spec, n):
    try:
        derived_graph(spec, n)
    except DisconnectedCoverError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(small_voltage_specs())
def test_connectivity_matches_layer_search_on_multi_vertex_bases(spec):
    # the rank decides every layer at once; derived_graph searches one layer
    predicted = check_tower_connectivity(spec).ok
    assert layer_is_connected(spec, 1) == predicted
    if spec.base.n_vertices * spec.ell ** (2 * spec.d) <= 500:
        assert layer_is_connected(spec, 2) == predicted


def test_disconnected_layer_raises_by_default():
    g = build_graph(1, [(0, 0), (0, 0)])
    bad = VoltageSpec(g, default_section(g), ((2, 0), (0, 1)), 2, 2)
    with pytest.raises(DisconnectedCoverError):
        derived_graph(bad, 1)


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        derived_graph(E1, 3, vertex_budget=10)
    # the default is the CLI's: layer 6 has 4096 vertices
    assert derived_graph(E1, 5).graph.n_vertices == 1024
    with pytest.raises(BudgetExceededError, match="budget is 3000"):
        derived_graph(E1, 6)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_covering_map_local_bijectivity(seed):
    rng = random.Random(seed)
    spec = random_connected_spec(rng, max_vertices=3)
    dg = derived_graph(spec, 1)
    g, base = dg.graph, spec.base
    size = spec.ell**spec.d
    stars_base = [[] for _ in range(base.n_vertices)]
    for e in range(base.n_directed):
        stars_base[base.origin(e)].append(e)
    for w in range(g.n_vertices):
        star = [e for e in range(g.n_directed) if g.origin(e) == w]
        v = dg.vertex_labels[w][0]
        # projection drops the group element: star maps bijectively
        projected = []
        for e in star:
            # layer edges are listed section-edge-major, size per section edge
            s = spec.section.edges[(e >> 1) // size]
            projected.append(s if e & 1 == 0 else s ^ 1)
        assert sorted(projected) == sorted(stars_base[v])
        assert len(star) == len(stars_base[v])
    assert g.n_vertices == base.n_vertices * size


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_deck_transformations_are_automorphisms(seed):
    rng = random.Random(seed)
    spec = random_connected_spec(rng, max_vertices=2)
    n = 1
    dg = derived_graph(spec, n)
    m = spec.ell**n
    size = m**spec.d
    pairs = pair_multiset(dg.graph)
    for tau in [(1,) * spec.d, tuple(rng.randrange(m) for _ in range(spec.d))]:
        def shift(vid):
            v, sigma = dg.vertex_labels[vid]
            moved = tuple((x + t) % m for x, t in zip(sigma, tau))
            idx = 0
            for x in moved:
                idx = idx * m + x
            return v * size + idx

        shifted = Counter(
            tuple(sorted((shift(a), shift(b)))) for a, b in dg.graph.edge_pairs
        )
        assert shifted == pairs


def test_section_choice_is_invisible():
    # re-orient some section edges (negating their voltages): the derived
    # graph is the same undirected multigraph on the same vertex set
    g = E3.base
    flipped_edges = tuple(
        (e ^ 1) if i % 2 else e for i, e in enumerate(default_section(g).edges)
    )
    flipped = VoltageSpec(
        g,
        Section(flipped_edges),
        tuple(
            tuple(-a for a in row) if i % 2 else row for i, row in enumerate(E3.alpha)
        ),
        E3.ell,
        E3.d,
    )
    for n in (1, 2):
        a = derived_graph(E3, n).graph
        b = derived_graph(flipped, n).graph
        assert pair_multiset(a) == pair_multiset(b)


def test_spec_validation():
    g = build_graph(1, [(0, 0)])
    with pytest.raises(SpecFormatError):
        VoltageSpec(g, default_section(g), ((1, 0),), 4, 2)  # 4 not prime
    with pytest.raises(SpecFormatError):
        VoltageSpec(g, default_section(g), ((1,),), 2, 2)  # wrong arity
    with pytest.raises(SpecFormatError):
        VoltageSpec(g, default_section(g), (), 2, 2)  # missing rows


def test_tower_spec_round_trip():
    doc = tower_spec_to_json(E1)
    assert load_tower_spec(doc) == E1


def test_load_tower_spec_rejects_garbage():
    with pytest.raises(SpecFormatError):
        load_tower_spec({"graph": {"vertices": 1, "edges": [[0, 0]]}, "ell": 2, "d": 2})
    with pytest.raises(SpecFormatError):
        load_tower_spec({"graph": {"vertices": 1, "edges": [[0, 0]]}, "ell": 2, "d": 2, "alpha": [[1, "x"]]})
    # JSON booleans are not integers, in the graph or in the tower fields
    good = {"graph": {"vertices": 1, "edges": [[0, 0], [0, 0]]}, "ell": 2, "d": 1, "alpha": [[1], [0]]}
    load_tower_spec(good)
    for field, bad in (
        ("graph", {"vertices": 1, "edges": [[0, 0], [0, False]]}),
        ("graph", {"vertices": True, "edges": [[0, 0], [0, 0]]}),
        ("ell", True),
        ("d", True),
        ("alpha", [[True], [0]]),
    ):
        with pytest.raises(SpecFormatError):
            load_tower_spec({**good, field: bad})


def test_dot_export_colors_fibers():
    dg = derived_graph(E1, 1)
    dot = derived_to_dot(dg)
    assert dot.count("fillcolor") == 4
    assert dot.count(" -- ") == 8
