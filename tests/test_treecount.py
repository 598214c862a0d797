import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elltowers import linalg, treecount
from elltowers.graphs import build_graph
from elltowers.lfunctions import TowerCalculator
from elltowers.linalg import bareiss_det, det_exact_modular, det_mod_prime
from elltowers.treecount import (
    DisconnectedGraphError,
    kappa_by_enumeration,
    kappa_matrix_tree,
    ord_prime,
    reduced_laplacian,
)
from elltowers.voltage import derived_graph

from conftest import fixture_spec, random_connected_spec, random_validated_graph

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


def test_disconnected_rejected_on_the_modular_path():
    # two 40-cycles: 79 rows, and every residue is 0
    cycle = [(i, (i + 1) % 40) for i in range(40)]
    g = build_graph(80, cycle + [(a + 40, b + 40) for a, b in cycle])
    assert g.n_vertices - 1 >= 33
    with pytest.raises(DisconnectedGraphError, match="requires a connected graph"):
        kappa_matrix_tree(g)


def test_reduced_laplacian_is_an_int64_array():
    # a loop (no contribution), a doubled edge, and every choice of dropped vertex
    g = build_graph(3, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 2)])
    full = [[2, -2, 0], [-2, 3, -1], [0, -1, 1]]
    for drop in range(3):
        lap = reduced_laplacian(g, drop)
        assert isinstance(lap, np.ndarray) and lap.dtype == np.int64
        keep = [i for i in range(3) if i != drop]
        assert lap.tolist() == [[full[i][j] for j in keep] for i in keep]
    assert reduced_laplacian(build_graph(1, [(0, 0)])).shape == (0, 0)
    with pytest.raises(ValueError):
        reduced_laplacian(g, 3)


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_matrix_tree_on_derived_layers_agrees_with_bareiss(seed):
    # layers of 34 to 300 vertices.  The oracle is pure-Python Bareiss
    # (cubic) up to 130 rows and the independent L-function route on
    # larger layers.
    rng = random.Random(seed)
    while True:
        spec = random_connected_spec(rng, max_vertices=4, d=rng.choice((1, 2)))
        sizes = {n: spec.base.n_vertices * spec.ell ** (spec.d * n) for n in range(1, 9)}
        levels = [n for n, v in sizes.items() if 33 < v <= 300]
        if levels:
            break
    n = rng.choice(levels)
    g = derived_graph(spec, n).graph
    if g.n_vertices - 1 <= 130:
        exact = bareiss_det(reduced_laplacian(g))
    else:
        exact = TowerCalculator(spec).kappa_exact(n)
    assert kappa_matrix_tree(g).kappa == exact
    assert kappa_matrix_tree(g, drop=rng.randrange(1, g.n_vertices)).kappa == exact


def test_bareiss_is_off_the_production_path():
    # every layer determinant goes through det_exact_modular, from the
    # 0 x 0 reduced Laplacian of one vertex up; Bareiss stays the oracle
    cycles = [build_graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 34)]
    layers = [derived_graph(fixture_spec("bouquet2_ell2"), n).graph for n in (1, 2)]
    graphs = [build_graph(1, [(0, 0)]), build_graph(2, [(0, 1), (0, 1)])] + cycles + layers
    assert {g.n_vertices for g in graphs} == set(range(1, 34))
    expected = [bareiss_det(reduced_laplacian(g)) for g in graphs]
    with mock.patch.object(treecount, "bareiss_det", side_effect=AssertionError("Bareiss was called")):
        assert [kappa_matrix_tree(g).kappa for g in graphs] == expected


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
WIDEST_ENTRY = (1 << 25) - 1  # the largest entry the modular path takes


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
    # one call mixes primes that kill a pivot column or force a swap with
    # primes that do not
    assert det_mod_prime(np.array(rows, dtype=np.int64), PRIMES) == [exact % p for p in PRIMES]
    perm = rng.sample(range(len(rows)), len(rows))
    permuted = [[rows[i][j] for j in perm] for i in perm]
    assert det_exact_modular(permuted) == exact
    assert det_mod_prime(np.array(permuted, dtype=np.int64), PRIMES) == [exact % p for p in PRIMES]


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
    rows = banded_case(rng, rng.randint(33, 48), kind)
    assert_banded_agrees(rows, rng)


def test_batch_mixes_swapped_and_unswapped_primes():
    # the first pivot is 0 mod 3 only, so one batch swaps rows for p = 3
    # and for no other prime; det = 7, so p = 7 gets residue 0
    rows = [[3, 1, 0], [1, 2, 1], [0, 1, 2]]
    assert bareiss_det(rows) == 7
    assert_banded_agrees(rows, random.Random(0))


def test_band_not_size_limits_elimination():
    # 4100 rows is past what a guard on n would allow; the band is 1 wide
    n = 4100
    mat = np.zeros((n, n), dtype=np.int64)
    i = np.arange(n)
    mat[i, i] = 2
    mat[i[1:], i[:-1]] = -1
    mat[i[:-1], i[1:]] = -1
    assert det_mod_prime(mat, PRIMES) == [(n + 1) % p for p in PRIMES]


def test_modular_determinant_builds_no_n_squared_temporary():
    # a 32 MB input: one n x n temporary, even a bool one, would show
    n = 2048
    mat = np.zeros((n, n), dtype=np.int64)
    i = np.arange(n)
    mat[i, i] = 2
    mat[i[1:], i[:-1]] = -1
    mat[i[:-1], i[1:]] = -1
    tracemalloc.start()
    try:
        assert det_exact_modular(mat) == n + 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_band_too_wide_is_refused():
    mat = np.eye(4097, dtype=np.int8)
    mat[0, 4096] = mat[4096, 0] = 1
    with pytest.raises(ValueError, match="band too wide"):
        det_mod_prime(mat, PRIMES)


def test_entries_past_2_25_are_refused():
    # strips take raw entries, and the guard counts on them being below 2^25
    for entry in (1 << 25, -(1 << 25)):
        with pytest.raises(ValueError, match="entries too large"):
            det_mod_prime(np.array([[entry]], dtype=np.int64), PRIMES)
        with pytest.raises(ValueError, match="entries too large"):
            det_exact_modular([[entry]])
    assert det_mod_prime(np.array([[-WIDEST_ENTRY]]), PRIMES) == [-WIDEST_ENTRY % p for p in PRIMES]


@pytest.mark.parametrize(
    "mat",
    [
        np.array([[2**64 - 1]], dtype=np.uint64),  # wraps to -1 in int64
        np.array([[-(2**63)]], dtype=np.int64),  # its absolute value is negative in int64
        [[2**70]],  # past int64
        [[2**64 - 1]],
    ],
    ids=["uint64", "int64-min", "python-int", "python-uint64"],
)
def test_entries_too_large_for_int64_are_refused(mat):
    with pytest.raises(ValueError, match="entries too large"):
        det_exact_modular(mat)
    with pytest.raises(ValueError, match="entries too large"):
        det_mod_prime(np.asarray(mat), PRIMES)


def passes_taken(call):
    """call() under a spy on det_mod_prime; returns its result and the
    primes of each elimination pass."""
    passes = []

    def spy(mat, primes):
        passes.append(list(primes))
        return det_mod_prime(mat, primes)

    with mock.patch.object(linalg, "det_mod_prime", spy):
        return call(), passes


def bits_of_primes_used(rows):
    """det_exact_modular(rows), checked against Bareiss, and log2 of the
    product of the primes it took."""
    det, passes = passes_taken(lambda: det_exact_modular(rows))
    assert det == bareiss_det(rows)
    return sum(math.log2(p) for primes in passes for p in primes)


def rcm_reference(pattern):
    """Reverse Cuthill-McKee as _rcm_order's docstring states it, in plain
    Python: breadth-first from the unvisited vertex of least (degree, index),
    neighbours taken by (degree, index), then reversed."""
    n = len(pattern)
    adj = [[j for j in range(n) if pattern[i][j]] for i in range(n)]
    key = [(len(adj[v]), v) for v in range(n)]
    order = []
    for start in sorted(range(n), key=key.__getitem__):
        if start in order:
            continue
        queue = [start]
        for v in queue:  # a list grown while it is walked is a FIFO queue
            queue += [u for u in sorted(adj[v], key=key.__getitem__) if u not in queue]
        order += queue
    return order[::-1]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_rcm_order_follows_its_rule(seed):
    # vertices fall into a few groups with edges only inside a group, so
    # there are several components and isolated vertices; degrees are small,
    # so ties are common; about half the diagonal is set
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    group = [rng.randrange(rng.randint(1, 6)) for _ in range(n)]
    density = rng.choice((0.03, 0.1, 0.3))
    pattern = np.zeros((n, n), dtype=bool)
    for i in range(n):
        pattern[i, i] = rng.random() < 0.5
        for j in range(i):
            if group[i] == group[j] and rng.random() < density:
                pattern[i, j] = pattern[j, i] = True
    assert linalg._rcm_order(linalg._csr(pattern)) == rcm_reference(pattern.tolist())


def envelope_reference(rows):
    """_envelope as its docstring states it, in plain Python."""
    n = len(rows)
    first = [min([j for j in range(n) if rows[i][j]], default=n) for i in range(n)]
    last = [max([j for j in range(n) if rows[i][j]], default=-1) for i in range(n)]
    rows_to = [max([k] + [i for i in range(n) if first[i] <= k]) for k in range(n)]
    cols_to = [max([k] + last[:rows_to[k] + 1]) for k in range(n)]
    height = max(r - k for k, r in enumerate(rows_to)) + 1
    width = max(c - k for k, c in enumerate(cols_to)) + 1
    return rows_to, cols_to, height, (min(2 * height - 1, n), min(height + width - 1, n))


@pytest.mark.parametrize("kind", ["symmetric", "non-symmetric", "singular", "zero-diagonal"])
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_envelope_follows_its_rule(kind, seed):
    rng = random.Random(seed)
    rows = banded_case(rng, rng.randint(1, 40), kind)
    perm = rng.sample(range(len(rows)), len(rows))
    for case in (rows, [[rows[i][j] for j in perm] for i in perm]):
        rows_to, cols_to, height, shape = linalg._envelope(linalg._csr(case))
        assert (rows_to.tolist(), cols_to.tolist(), height, shape) == envelope_reference(case)


def guard_admits(height, p):
    """Lazy reduction: an entry below 2^25 that absorbs height products
    below (p - 1)^2 stays below 2^62."""
    return height * (p - 1) ** 2 + (1 << 25) < 1 << 62


def widest_admitted_prime(height):
    p = math.isqrt((1 << 62) // height) + 2  # just past what the guard admits
    while not (guard_admits(height, p) and linalg.is_prime(p)):
        p -= 1
    return p


def next_prime(p):
    p += 1
    while not linalg.is_prime(p):
        p += 1
    return p


# the widest admitted prime loses a bit at heights 4, 16, 64 and 256
@pytest.mark.parametrize("height", [1, 3, 4, 15, 16, 18, 56, 63, 64, 65])
def test_widest_primes_the_guard_admits(height):
    rng = random.Random(height)
    n = height + 2
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, min(n, i + height)):
            rows[i][j] = rows[j][i] = rng.choice((-WIDEST_ENTRY, WIDEST_ENTRY))
    det, passes = passes_taken(lambda: det_exact_modular(rows))
    assert det == bareiss_det(rows)
    primes = [p for batch in passes for p in batch]
    assert all(guard_admits(height, p) for p in primes)
    top = widest_admitted_prime(height)
    assert max(primes) == top
    above = next_prime(top)
    assert not guard_admits(height, above)
    with pytest.raises(ValueError, match="band too wide"):
        det_mod_prime(np.array(rows, dtype=np.int64), [above])


@pytest.mark.parametrize("n", [255, 256])
def test_widest_primes_the_guard_admits_past_bareiss_size(n):
    # an arrow, the diagonal plus the last row and column: that row starts in
    # column 0, so the band is n rows high, and its last entry absorbs one
    # product per step.  With a_ii = s_i E, a_i,n-1 = a_n-1,i = t_i E and
    # a_n-1,n-1 = u E (signs s, t, u), the Schur complement of the diagonal
    # block gives det = E^n (prod s_i)(u - sum s_i).
    rng = random.Random(n)
    s, t = (np.array([rng.choice((-1, 1)) for _ in range(n - 1)]) for _ in range(2))
    u = rng.choice((-1, 1))
    mat = np.diag(np.append(s, u)) * WIDEST_ENTRY
    mat[-1, :-1] = mat[:-1, -1] = t * WIDEST_ENTRY
    det = WIDEST_ENTRY**n * math.prod(s.tolist()) * (u - int(s.sum()))
    top = widest_admitted_prime(n)
    assert det_mod_prime(mat, [top]) == [det % top]
    with pytest.raises(ValueError, match="band too wide"):
        det_mod_prime(mat, [next_prime(top)])


def test_layer_of_728_rows_takes_one_elimination_pass():
    g = derived_graph(fixture_spec("bouquet2_ell3"), 3).graph
    assert g.n_vertices == 729
    tc, passes = passes_taken(lambda: kappa_matrix_tree(g, 3))
    assert len(passes) == 1
    assert tc.kappa > 0


def test_primes_are_shared_out_evenly_when_strips_do_not_fit():
    # dense upper triangular: the row-norm bound needs 84 primes of 28 bits,
    # and a 90 x 90 strip leaves room for 64 per pass in 4 MB, so 42 + 42,
    # not 64 + 20
    rng = random.Random(11)
    n = 90
    rows = [[rng.randint(1, 2**24 - 1) if j >= i else 0 for j in range(n)] for i in range(n)]
    with mock.patch.object(linalg, "_PASS_BYTES", 4 << 20):
        det, passes = passes_taken(lambda: det_exact_modular(rows))
    assert det == math.prod(rows[i][i] for i in range(n))
    sizes = [len(primes) for primes in passes]
    assert len(sizes) > 1 and max(sizes) - min(sizes) <= 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_diagonally_dominant_symmetric_takes_diagonal_bound(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    bound = rng.choice((1, 5, 2**19))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.3:
                rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
    slack = rng.choice((0, 1, bound))
    for i in range(n):
        rows[i][i] = sum(abs(x) for x in rows[i]) + rng.randint(0, slack)
    det, passes = passes_taken(lambda: det_exact_modular(rows))
    assert det == bareiss_det(rows)
    primes = [p for batch in passes for p in batch]
    bits = sum(math.log2(p) for p in primes)
    if all(rows[i][i] for i in range(n)):
        # positive semidefinite by Gershgorin: det <= prod a_ii, and the
        # primes stop less than one prime past that bound
        diagonal = sum(math.log2(rows[i][i]) for i in range(n))
        assert diagonal + 8 <= bits < diagonal + 8 + max(primes).bit_length()


@pytest.mark.parametrize("block, copies", [
    ([[1, 1], [-1, 1]], 40),  # dominant but not symmetric: det 2^40
    ([[1, 2**24 - 1], [2**24 - 1, 1]], 3),  # symmetric but not dominant
], ids=["non-symmetric", "non-dominant"])
def test_other_matrices_keep_row_norm_bound(block, copies):
    n = 2 * copies
    rows = [[0] * n for _ in range(n)]
    for c in range(copies):
        for i in range(2):
            for j in range(2):
                rows[2 * c + i][2 * c + j] = block[i][j]
    hadamard = sum(0.5 * math.log2(sum(x * x for x in r)) for r in rows)
    assert bits_of_primes_used(rows) >= hadamard + 8
