import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elltowers.graphs import (
    GraphInputError,
    build_graph,
    graph_from_json,
    graph_to_json,
    validate_base,
)
from elltowers.treecount import kappa_matrix_tree

from conftest import random_validated_graph
from oracles import ihara_h, matrices

BOUQUET2 = build_graph(1, [(0, 0), (0, 0)])
DOUBLED_EDGE = build_graph(2, [(0, 1), (0, 1)])
# 4-cycle with every edge doubled: 8 undirected edges, chi = -4
DOUBLED_C4 = build_graph(4, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3), (3, 0), (3, 0)])


def test_bouquet_bookkeeping():
    assert BOUQUET2.n_directed == 4
    assert BOUQUET2.euler_char == -1


def test_doubled_edge_chi():
    assert DOUBLED_EDGE.euler_char == 0


def test_doubled_four_cycle_counts():
    assert DOUBLED_C4.n_undirected == 8
    assert DOUBLED_C4.euler_char == -4


def test_out_of_range_vertex_rejected():
    with pytest.raises(GraphInputError):
        build_graph(2, [(0, 2)])


def test_empty_edge_set_rejected():
    with pytest.raises(GraphInputError):
        build_graph(3, [])


def test_bfs_tree_lists_reaching_edges_in_search_order():
    g = build_graph(4, [(2, 1), (1, 0), (0, 1), (3, 3), (2, 0)])
    assert g.bfs_tree() == [(0, 1), (0, 2)]
    assert not g.is_connected()
    assert build_graph(4, [(2, 1), (3, 1), (0, 1)]).bfs_tree() == [(0, 1), (1, 2), (1, 3)]


def test_validate_bouquet_passes():
    report = validate_base(BOUQUET2)
    assert report.ok
    assert report.min_valency == 4
    assert report.euler_characteristic == -1


def test_validate_single_edge_fails_on_valency():
    report = validate_base(build_graph(2, [(0, 1)]))
    assert not report.ok
    assert any("valency" in r for r in report.reasons)


def test_validate_triangle_fails_on_chi():
    report = validate_base(build_graph(3, [(0, 1), (1, 2), (2, 0)]))
    assert not report.ok
    assert any("Euler" in r for r in report.reasons)


def test_matrices_bouquet():
    m = matrices(BOUQUET2)
    assert m.adjacency == ((4,),)
    assert m.degree == ((4,),)


def test_matrices_doubled_edge():
    m = matrices(DOUBLED_EDGE)
    assert m.adjacency == ((0, 2), (2, 0))
    assert m.degree == ((2, 0), (0, 2))


def test_matrices_doubled_four_cycle():
    m = matrices(DOUBLED_C4)
    assert all(m.degree[i][i] == 4 for i in range(4))
    assert m.adjacency[0][1] == 2 and m.adjacency[0][3] == 2 and m.adjacency[0][2] == 0


def test_ihara_bouquet():
    h = ihara_h(BOUQUET2)
    assert h.coeffs == (1, -4, 3)
    assert h(1) == 0
    # class formula with chi = -1, kappa = 1
    assert h.derivative_at(1) == 2


def test_ihara_constant_term_is_one():
    for g in (BOUQUET2, DOUBLED_C4):
        assert ihara_h(g)(0) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_graph_invariants(seed):
    rng = random.Random(seed)
    g = random_validated_graph(rng)
    # the inverse of directed edge e is e ^ 1: same ends, swapped
    for e in range(g.n_directed):
        assert g.origin(e) == g.terminus(e ^ 1)
    # adjacency symmetric, row sums match valencies, loops doubled
    m = matrices(g)
    val = g.valencies()
    for i in range(g.n_vertices):
        assert sum(m.adjacency[i]) == val[i] == m.degree[i][i]
        for j in range(g.n_vertices):
            assert m.adjacency[i][j] == m.adjacency[j][i]
    assert ihara_h(g)(1) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_class_formula_on_random_graphs(seed):
    rng = random.Random(seed)
    g = random_validated_graph(rng)
    h = ihara_h(g)
    kappa = kappa_matrix_tree(g).kappa
    assert h.derivative_at(1) == -2 * g.euler_char * kappa


def test_json_round_trip():
    doc = {"vertices": 2, "edges": [[0, 1], [1, 1], [0, 1]]}
    g = graph_from_json(doc)
    assert graph_to_json(g) == doc


def test_json_rejects_bad_documents():
    with pytest.raises(GraphInputError):
        graph_from_json({"vertices": 2})
    with pytest.raises(GraphInputError):
        graph_from_json({"vertices": 2, "edges": [[0, 1, 2]]})
    with pytest.raises(GraphInputError):
        graph_from_json([1, 2])
    # JSON booleans are not integers
    with pytest.raises(GraphInputError):
        graph_from_json({"vertices": True, "edges": [[0, 0]]})
    with pytest.raises(GraphInputError):
        graph_from_json({"vertices": 1, "edges": [[0, 0], [0, False]]})
