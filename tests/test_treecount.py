import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elltowers import (
    DisconnectedGraphError,
    build_graph,
    kappa_by_enumeration,
    kappa_matrix_tree,
    ord_prime,
)
from elltowers.linalg import bareiss_det, det_exact_modular, det_mod_prime
from elltowers.treecount import BAREISS_LIMIT, reduced_laplacian

from conftest import random_validated_graph

DOUBLED_C4 = build_graph(4, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3), (3, 0), (3, 0)])


def test_doubled_four_cycle_count():
    # brute force: pick 3 of the 4 cycle positions, 2 parallel choices each
    tc = kappa_matrix_tree(DOUBLED_C4, ell=2)
    assert tc.kappa == 32
    assert tc.ord_ell == 5
    assert kappa_by_enumeration(DOUBLED_C4) == 32


def test_bouquet_has_one_tree():
    g = build_graph(1, [(0, 0), (0, 0), (0, 0)])
    assert kappa_matrix_tree(g).kappa == 1


def test_doubled_edge_has_two_trees():
    g = build_graph(2, [(0, 1), (0, 1)])
    assert kappa_matrix_tree(g).kappa == 2


def test_disconnected_rejected():
    g = build_graph(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        kappa_matrix_tree(g)


def test_ord_prime_values():
    assert ord_prime(32, 2) == 5
    assert ord_prime(1, 7) == 0
    # 2900 = 2^2 * 5^2 * 29
    assert ord_prime(2900, 2) == 2
    assert ord_prime(2900, 5) == 2
    assert ord_prime(2900, 3) == 0


def test_ord_prime_rejects_zero():
    with pytest.raises(ValueError):
        ord_prime(0, 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_enumeration_agrees_with_determinant(seed):
    rng = random.Random(seed)
    g = random_validated_graph(rng, max_vertices=5)
    if g.n_undirected > 12:
        return
    assert kappa_matrix_tree(g).kappa == kappa_by_enumeration(g)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=3))
def test_drop_index_does_not_matter(seed, drop):
    rng = random.Random(seed)
    g = random_validated_graph(rng, max_vertices=6)
    d = drop % g.n_vertices
    assert kappa_matrix_tree(g).kappa == kappa_matrix_tree(g, drop=d).kappa


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_loop_invariance(seed):
    rng = random.Random(seed)
    g = random_validated_graph(rng, max_vertices=6)
    v = rng.randrange(g.n_vertices)
    with_loop = build_graph(g.n_vertices, list(g.edge_pairs) + [(v, v)])
    assert kappa_matrix_tree(g).kappa == kappa_matrix_tree(with_loop).kappa


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_modular_determinant_agrees_with_bareiss(seed):
    rng = random.Random(seed)
    g = random_validated_graph(rng, max_vertices=8)
    lap = reduced_laplacian(g)
    assert det_exact_modular(lap) == bareiss_det(lap)


# small primes make zero pivots, and so row swaps inside the band, common
PRIMES = (2, 3, 5, 7, 33554393)


def random_banded(rng, n, lower, upper, bound):
    """Entries in [-bound, bound] with i - j <= lower and j - i <= upper."""
    return [
        [rng.randint(-bound, bound) if -lower <= j - i <= upper else 0 for j in range(n)]
        for i in range(n)
    ]


def banded_case(rng, n, kind):
    lower = rng.randrange(n)
    upper = lower if kind == "symmetric" else rng.randrange(n)
    rows = random_banded(rng, n, lower, upper, rng.choice((3, 2**24 - 1)))
    if kind == "singular" and n > 1:
        i, j = rng.sample(range(n), 2)
        rows[j] = [rng.choice((-2, -1, 1, 2)) * x for x in rows[i]]
    if kind == "zero-diagonal":
        for i in range(n):
            rows[i][i] = 0
    return rows


def assert_banded_agrees(rows, rng):
    exact = bareiss_det(rows)
    assert det_exact_modular(rows) == exact
    mat = np.array(rows, dtype=np.int64)
    for p in PRIMES:
        assert det_mod_prime(mat, p) == exact % p, p
    perm = rng.sample(range(len(rows)), len(rows))
    permuted = [[rows[i][j] for j in perm] for i in perm]
    assert det_exact_modular(permuted) == exact
    for p in PRIMES:
        assert det_mod_prime(np.array(permuted, dtype=np.int64), p) == exact % p, p


@pytest.mark.parametrize("kind", ["symmetric", "non-symmetric", "singular", "zero-diagonal"])
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_banded_determinant_agrees_with_bareiss(kind, seed):
    rng = random.Random(seed)
    rows = banded_case(rng, rng.randint(1, 24), kind)
    assert_banded_agrees(rows, rng)


@settings(max_examples=4, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(["non-symmetric", "zero-diagonal"]))
def test_banded_determinant_beyond_bareiss_limit(seed, kind):
    rng = random.Random(seed)
    rows = banded_case(rng, rng.randint(BAREISS_LIMIT + 1, BAREISS_LIMIT + 16), kind)
    assert_banded_agrees(rows, rng)
