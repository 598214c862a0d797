import itertools
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
    kappa_matrix_tree,
    ord_prime,
    reduced_laplacian,
)
from elltowers.voltage import derived_graph

from conftest import FIXTURE_NAMES, fixture_spec, random_connected_spec, random_validated_graph
from oracles import kappa_by_enumeration

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


def test_reduced_laplacian_refuses_past_the_row_capacity(monkeypatch):
    # layer 5 of bouquet2_ell3 would be a 26 GiB array: refused before it
    # is built.  The capacity counts rows, one fewer than the vertices
    g = derived_graph(fixture_spec("bouquet2_ell3"), 5, vertex_budget=3**10).graph
    with pytest.raises(ValueError, match=r"^graph of 59049 vertices: its reduced Laplacian, 59048 x 59048 int64 "
                                         r"\(26\.0 GiB\), is past the capacity of 8192 rows$"):
        kappa_matrix_tree(g, 3)
    monkeypatch.setattr(treecount, "_MAX_LAPLACIAN_ROWS", 4)
    cycle = [build_graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in (5, 6)]
    assert kappa_matrix_tree(cycle[0]).kappa == 5
    with pytest.raises(ValueError, match="^graph of 6 vertices: its reduced Laplacian, 5 x 5 int64"):
        reduced_laplacian(cycle[1])


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


# small primes make zero pivots, and so failed primes, common
PRIMES = (2, 3, 5, 7, 33554393)
WIDEST_ENTRY = (1 << 25) - 1  # the largest entry the modular path takes


def random_banded(rng, n, width, bound):
    """A symmetric matrix with entries in [-bound, bound] where |i - j| <= width."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(max(0, i - width), i + 1):
            rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
    return rows


def banded_case(rng, n, kind):
    """A symmetric banded matrix of the kind: any, singular, with a zero
    diagonal, or diagonally dominant with a nonnegative diagonal; or, of
    the non-symmetric kind, one with an entry off by one from its mirror."""
    bound = rng.choice((3, 2**24 - 1)) if kind != "dominant" else rng.choice((3, WIDEST_ENTRY // (2 * n)))
    rows = random_banded(rng, n, rng.randrange(n), bound)
    if kind == "singular" and n > 1:
        # row and column j become c times row and column i, so det = 0
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2) if bound == 3 else (-1, 1))
        for k in range(n):
            rows[j][k] = rows[k][j] = c * rows[i][k]
        rows[j][j] = c * c * rows[i][i]
    if kind == "zero-diagonal":
        for i in range(n):
            rows[i][i] = 0
    if kind == "dominant":
        for i in range(n):
            rows[i][i] = sum(abs(x) for j, x in enumerate(rows[i]) if j != i) + rng.randint(0, 2)
    if kind == "non-symmetric" and n > 1:
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[j][i] + rng.choice((-1, 1))
    return rows


def symmetric(rows):
    return all(rows[i][j] == rows[j][i] for i in range(len(rows)) for j in range(i))


def in_domain(rows):
    """Symmetric, weakly diagonally dominant, with a nonnegative diagonal."""
    return symmetric(rows) and all(2 * row[i] >= sum(map(abs, row)) for i, row in enumerate(rows))


def assert_banded_agrees(rows, rng):
    """On the matrix and on a symmetric permutation of it: if it is
    symmetric, det_mod_prime gives exact % p or None at each prime, never
    a wrong residue, in one call that mixes primes that kill a pivot
    column, primes that fail and primes that do neither, and
    det_exact_modular is exact in its domain and refuses the matrix
    outside it; if not, both refuse it."""
    exact = bareiss_det(rows)
    perm = rng.sample(range(len(rows)), len(rows))
    for case in (rows, [[rows[i][j] for j in perm] for i in perm]):
        if not symmetric(case):
            for call in (lambda: det_mod_prime(np.array(case, dtype=np.int64), PRIMES),
                         lambda: det_exact_modular(case)):
                with pytest.raises(ValueError, match="^matrix is not symmetric; the modular determinant"):
                    call()
            continue
        got = det_mod_prime(np.array(case, dtype=np.int64), PRIMES)
        assert all(r is None or r == exact % p for p, r in zip(PRIMES, got))
        if in_domain(case):
            assert det_exact_modular(case) == exact
        else:
            with pytest.raises(ValueError, match="the modular determinant takes reduced Laplacians"):
                det_exact_modular(case)


@pytest.mark.parametrize("kind", ["symmetric", "non-symmetric", "dominant", "singular", "zero-diagonal"])
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_banded_determinant_agrees_with_bareiss(kind, seed):
    rng = random.Random(seed)
    rows = banded_case(rng, rng.randint(1, 24), kind)
    assert_banded_agrees(rows, rng)


@settings(max_examples=4, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(["symmetric", "zero-diagonal"]))
def test_banded_determinant_beyond_bareiss_limit(seed, kind):
    rng = random.Random(seed)
    rows = banded_case(rng, rng.randint(33, 48), kind)
    assert_banded_agrees(rows, rng)


def test_batch_mixes_failed_and_good_primes():
    # the leading minors are 3, 5 and 7: one batch fails p = 3 and p = 5,
    # whose pivots vanish beside a live column, gives p = 7 residue 0, where
    # the last pivot vanishes, and gives p = 2 and the wide prime theirs
    rows = [[3, 1, 0], [1, 2, 1], [0, 1, 2]]
    assert bareiss_det(rows) == 7
    assert det_mod_prime(np.array(rows), PRIMES) == [1, None, None, 0, 7]
    assert det_exact_modular(rows) == 7
    assert_banded_agrees(rows, random.Random(0))


def test_band_not_size_limits_elimination():
    # 4100 rows, past the front limit of about 4096 pivots: a narrow band
    # keeps every front small
    n = 4100
    mat = np.zeros((n, n), dtype=np.int64)
    i = np.arange(n)
    mat[i, i] = 2
    mat[i[1:], i[:-1]] = -1
    mat[i[:-1], i[1:]] = -1
    got = det_mod_prime(mat, PRIMES)
    assert all(r is None or r == (n + 1) % p for p, r in zip(PRIMES, got))
    assert got[-1] == (n + 1) % PRIMES[-1]
    assert det_exact_modular(mat) == n + 1


def test_modular_determinant_builds_no_n_squared_temporary():
    # a 32 MB input: one n x n temporary, even a bool one, would show.  The
    # identity with a 64-row (2, -1) block has det 65, so its bound asks for
    # few primes and tracemalloc traces few modular inverses
    n, b = 2048, 64
    mat = np.eye(n, dtype=np.int64)
    i = np.arange(b)
    mat[i, i] = 2
    mat[i[1:], i[:-1]] = -1
    mat[i[:-1], i[1:]] = -1
    tracemalloc.start()
    try:
        assert det_exact_modular(mat) == b + 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_entries_past_2_25_are_refused():
    # fronts take raw entries, and the guard counts on them being below 2^25
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


PSI_12 = 318665857834031151167461  # least strong pseudoprime to the bases 2..37
PSI_13 = 3317044064679887385961981  # ... to the bases 2..41


def test_is_prime_rejects_the_least_strong_pseudoprime_to_bases_up_to_37():
    assert PSI_12 == 399165290221 * 798330580441
    assert not linalg.is_prime(PSI_12)
    assert linalg.is_prime(399165290221) and linalg.is_prime(798330580441)


def test_is_prime_refuses_numbers_past_its_exact_bound():
    assert PSI_13 == 1287836182261 * 2575672364521 == linalg.MR_EXACT_BELOW
    assert linalg.is_prime(1287836182261) and linalg.is_prime(2575672364521)
    with pytest.raises(ValueError, match="where primality is exact"):
        linalg.is_prime(PSI_13)


def guard_admits(pivots, p):
    """Lazy reduction: an entry below 2^25 that absorbs one product below
    (p - 1)^2 per pivot of its front stays below 2^62."""
    return pivots * (p - 1) ** 2 + (1 << 25) < 1 << 62


def widest_admitted_prime(pivots):
    p = math.isqrt((1 << 62) // pivots) + 2  # just past what the guard admits
    while not (guard_admits(pivots, p) and linalg.is_prime(p)):
        p -= 1
    return p


def next_prime(p):
    p += 1
    while not linalg.is_prime(p):
        p += 1
    return p


def complete_layer(pivots):
    """The reduced Laplacian of K_(m+1) with every edge E-fold, E as large as
    the entries allow, and its determinant E^m (m + 1)^(m - 1) (Cayley).
    Its largest front has ``pivots`` pivots: with m = pivots rows, up to
    _LEAF, the whole matrix is one leaf front; past it, with m = pivots + 1,
    nested dissection takes one row as a leaf and the rest as a separator."""
    m = pivots if pivots <= linalg._LEAF else pivots + 1
    e = WIDEST_ENTRY // m
    mat = np.full((m, m), -e, dtype=np.int64)
    mat[np.arange(m), np.arange(m)] = m * e
    assert linalg._fronts(linalg._csr(mat)).pivots == pivots
    return mat, e**m * (m + 1) ** (m - 1)


# the widest admitted prime loses a bit at 4, 16, 64 and 256 pivots
@pytest.mark.parametrize("pivots", [1, 3, 4, 15, 16, 18, 56, 63, 64, 65])
def test_widest_primes_the_guard_admits(pivots):
    mat, det = complete_layer(pivots)
    got, passes = passes_taken(lambda: det_exact_modular(mat))
    assert got == det
    primes = [p for batch in passes for p in batch]
    assert all(guard_admits(pivots, p) for p in primes)
    top = widest_admitted_prime(pivots)
    assert max(primes) == top
    above = next_prime(top)
    assert not guard_admits(pivots, above)
    with pytest.raises(ValueError, match="front too large"):
        det_mod_prime(mat, [above])


@pytest.mark.parametrize("pivots", [255, 256])
def test_widest_primes_the_guard_admits_past_bareiss_size(pivots):
    mat, det = complete_layer(pivots)
    top = widest_admitted_prime(pivots)
    assert det_mod_prime(mat, [top]) == [det % top]
    with pytest.raises(ValueError, match="front too large"):
        det_mod_prime(mat, [next_prime(top)])


def test_layer_of_728_rows_takes_one_elimination_pass():
    g = derived_graph(fixture_spec("bouquet2_ell3"), 3).graph
    assert g.n_vertices == 729
    tc, passes = passes_taken(lambda: kappa_matrix_tree(g, 3))
    assert len(passes) == 1
    assert tc.kappa > 0


def test_primes_are_shared_out_evenly_when_fronts_do_not_fit():
    # the 255-row layer of bouquet2_ell2 under a budget that fits the
    # fronts of 7 primes: the fewest passes that fit, sizes differing by
    # at most one, and one symbolic phase for all of them
    spec = fixture_spec("bouquet2_ell2")
    lap = reduced_laplacian(derived_graph(spec, 4).graph)
    peak = linalg._fronts(linalg._csr(lap)).peak
    with mock.patch.object(linalg, "_PASS_BYTES", 7 * peak + 1), \
            mock.patch.object(linalg, "_fronts", wraps=linalg._fronts) as fronts:
        det, passes = passes_taken(lambda: det_exact_modular(lap))
    assert det == TowerCalculator(spec).kappa_exact(4)
    assert fronts.call_count == 1
    sizes = [len(primes) for primes in passes]
    assert len(sizes) == -(-sum(sizes) // 7) > 1
    assert max(sizes) <= 7 and max(sizes) - min(sizes) <= 1


def test_peak_bounds_what_a_pass_allocates():
    # 32 primes on the 728-row layer: det_mod_prime's allocations, as
    # tracemalloc sees them, stay under the record's peak per prime, up to
    # numpy's fixed buffers
    lap = reduced_laplacian(derived_graph(fixture_spec("bouquet2_ell3"), 3).graph)
    record = linalg._fronts(linalg._csr(lap))
    candidates = range(linalg._prime_ceiling(record.pivots), 0, -1)
    primes = list(itertools.islice(filter(linalg.is_prime, candidates), 32))
    tracemalloc.start()
    try:
        det_mod_prime(record, primes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(primes) * record.peak + (256 << 10)


def test_failed_prime_is_replaced():
    # the reduced Laplacian of a multigraph on vertices 0 (dropped) to 3:
    # x - 1 edges 0-1, z - 2 edges 0-2, and single edges 1-2 and 2-3.  Its
    # one front pivots the rows in order, and x z = 1 mod p makes the
    # second leading minor x z - 1 vanish mod the first prime drawn, with
    # row 3 still live, so that prime fails; det = x z - 1 - x does not
    p = widest_admitted_prime(3)
    x = next(x for x in range(WIDEST_ENTRY, 1, -1) if 2 <= pow(x, -1, p) <= WIDEST_ENTRY)
    z = pow(x, -1, p)
    rows = [[x, -1, 0], [-1, z, -1], [0, -1, 1]]
    assert det_mod_prime(np.array(rows), [p]) == [None]
    with mock.patch.object(linalg, "_fronts", wraps=linalg._fronts) as fronts:
        det, passes = passes_taken(lambda: det_exact_modular(rows))
    assert det == bareiss_det(rows) == x * z - 1 - x
    assert fronts.call_count == 1
    primes = [q for batch in passes for q in batch]
    assert primes[0] == p
    # the primes that did not fail still pass the bound on |det|
    assert sum(math.log2(q) for q in primes[1:]) >= math.log2(x * z) + 8


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


@pytest.mark.parametrize("block, copies, why", [
    ([[1, 1], [-1, 1]], 40, "not symmetric"),
    ([[1, 2**24 - 1], [2**24 - 1, 1]], 3, "not weakly diagonally dominant"),
    ([[-1, 0], [0, 1]], 2, "negative diagonal entry"),
], ids=["non-symmetric", "non-dominant", "negative-diagonal"])
def test_other_matrices_are_refused(block, copies, why):
    # outside the domain the modular determinant is refused, before any
    # elimination, with the condition that fails
    n = 2 * copies
    rows = [[0] * n for _ in range(n)]
    for c in range(copies):
        for i in range(2):
            for j in range(2):
                rows[2 * c + i][2 * c + j] = block[i][j]
    with mock.patch.object(linalg, "det_mod_prime", side_effect=AssertionError("eliminated")), \
            pytest.raises(ValueError, match=why):
        det_exact_modular(rows)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_multifrontal_residues_on_derived_layers_agree_with_bareiss(seed):
    # a connected layer's reduced Laplacian is positive definite, so no
    # pivot vanishes over Q, and at primes past 2^25 none vanishes here
    # modulo p: no prime fails
    rng = random.Random(seed)
    while True:
        spec = random_connected_spec(rng, max_vertices=4, d=rng.choice((1, 2)))
        v = spec.base.n_vertices
        levels = [n for n in (1, 2) if v > 1 and 8 < v * spec.ell ** (spec.d * n) <= 100]
        if levels:
            break
    lap = reduced_laplacian(derived_graph(spec, rng.choice(levels)).graph)
    exact = bareiss_det(lap)
    residues = []

    def spy(mat, primes):
        got = det_mod_prime(mat, primes)
        residues.extend(zip(primes, got))
        return got

    with mock.patch.object(linalg, "det_mod_prime", spy):
        assert det_exact_modular(lap) == exact
    assert residues and residues == [(p, exact % p) for p, _ in residues]


def test_vanishing_pivot_fails_its_prime_only_when_its_column_lives():
    # [[2, 1], [1, 2]]: the pivot 2 vanishes mod 2 beside a live column, so
    # p = 2 fails and p = 5 does not; det = 3
    assert det_mod_prime(np.array([[2, 1], [1, 2]]), [2, 5]) == [None, 3]
    # a vanishing pivot whose row and column vanish: residue 0, no failure,
    # over Z (a zero row) or only mod 2 (det = 2)
    assert det_mod_prime(np.array([[0, 0], [0, 2]]), [2, 5]) == [0, 0]
    assert det_mod_prime(np.array([[2, 2], [2, 3]]), [2, 5]) == [0, 2]


@pytest.mark.parametrize("rows", [
    [[2, -1, 0], [0, 2, -1], [0, -1, 2]],  # an entry without its mirror
    [[2, -1], [-2, 3]],  # mirrored entries that differ
], ids=["pattern", "values"])
def test_both_entry_points_refuse_a_non_symmetric_matrix(rows):
    # before the symbolic phase, so before any elimination; the entry-size
    # check still comes first
    refusal = "matrix is not symmetric; the modular determinant takes reduced Laplacians"
    with mock.patch.object(linalg, "_fronts", side_effect=AssertionError("eliminated")):
        with pytest.raises(ValueError, match=refusal):
            det_mod_prime(np.array(rows), PRIMES)
        with pytest.raises(ValueError, match=refusal):
            det_exact_modular(rows)
        rows[0][0] = 1 << 25
        with pytest.raises(ValueError, match="entries too large"):
            det_mod_prime(np.array(rows), PRIMES)
        with pytest.raises(ValueError, match="entries too large"):
            det_exact_modular(rows)


def peak_reference(fronts):
    """The peak of _Fronts as its docstring states it: the most, over the
    fronts, of twice the front's entries plus the entries of every update
    block made before it and taken by it or a later front, in bytes per
    prime."""
    parent = {c: t for t, front in enumerate(fronts) for c, _ in front[4]}
    size = [len(index) - s for index, s, _, _, _ in fronts]
    return 8 * max(2 * len(index) ** 2 + sum(size[c] ** 2 for c in parent if c < t <= parent[c])
                   for t, (index, _, _, _, _) in enumerate(fronts))


def assert_fronts_follow_their_rule(a):
    """For a symmetric array: every row is a pivot of exactly one front; a
    front holds every later row its pivots reach in the nonzero pattern,
    and its update rows are pivots of its ancestors; every entry of the
    matrix goes to exactly one front.  The record's pivot count and peak
    follow from its fronts."""
    n = len(a)
    mat = linalg._csr(a)
    order, _ = linalg._dissection(mat)
    assert sorted(order) == list(range(n))
    record = linalg._fronts(mat)
    fronts = record.fronts
    pivots = [index[:s].tolist() for index, s, _, _, _ in fronts]
    assert sorted(sum(pivots, [])) == list(range(n))
    assert record.pivots == max(len(p) for p in pivots)
    assert record.peak == peak_reference(fronts)
    parent = {c: t for t, front in enumerate(fronts) for c, _ in front[4]}
    pattern = a[np.ix_(order, order)] != 0
    for t, (index, s, _, _, _) in enumerate(fronts):
        end = pivots[t][-1] + 1
        reach = np.flatnonzero(pattern[pivots[t][0]:end].any(axis=0))
        assert set(reach[reach >= end].tolist()) <= set(index.tolist())
        above, a = set(), t
        while a in parent:
            a = parent[a]
            above.update(pivots[a])
        assert set(index[s:].tolist()) <= above
    assert sum(len(front[3]) for front in fronts) == len(mat.vals)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fronts_follow_their_rule_on_fixture_layers(name):
    spec = fixture_spec(name)
    for n in range(1, 4):
        assert_fronts_follow_their_rule(reduced_laplacian(derived_graph(spec, n).graph))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_fronts_follow_their_rule_on_random_patterns(seed):
    # edges only inside a few groups, so several components and isolated
    # vertices; P drawn at random and made symmetric as P | P^T, with about
    # half the diagonal set
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    group = [rng.randrange(rng.randint(1, 6)) for _ in range(n)]
    density = rng.choice((0.03, 0.1, 0.3))
    pattern = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            pattern[i, j] = rng.random() < 0.5 if i == j else group[i] == group[j] and rng.random() < density
    assert_fronts_follow_their_rule(pattern | pattern.T)
