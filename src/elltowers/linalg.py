"""Exact linear algebra: fraction-free and modular determinants, rational solves.

Everything returned from this module is exact.  Floating point shows up only
inside the determinant bound for the modular determinant, where it is
padded conservatively before being used to pick how many primes to take.

The modular determinant takes reduced Laplacians: symmetric, weakly
diagonally dominant, with a nonnegative diagonal, and refuses any other
matrix with a ValueError that says which condition fails.  It reads its
input once into compressed sparse rows (CSR), its nonzero pattern, and
builds no other n x n array.  One symbolic phase orders that pattern by
nested dissection and lists its fronts; det_mod_prime eliminates a batch
of primes at once, front by front, without pivoting.  An entry absorbs at
most one product per pivot of its front before the front passes it on
reduced, so the largest front sizes the primes, 2^27.5 to 2^30.2 on the
fixture layers and never below 2^25, and the live fronts and update
blocks size the passes, as few as fit 32 MB.  A prime whose pivot
vanishes beside a live column fails; on this domain that happens only
when it divides a leading minor, and the next prime replaces it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13 = 1287836182261 * 2575672364521, the least strong pseudoprime to
# every base above (Sorenson and Webster, Math. Comp. 2017)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 primes, exact below
    MR_EXACT_BELOW; larger n raise ValueError."""
    if n >= MR_EXACT_BELOW:
        raise ValueError(f"{n} is not below {MR_EXACT_BELOW}, where primality is exact")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def bareiss_det(rows) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix.

    All intermediate entries are k x k minors of the input, so every
    division below is exact; no rationals ever appear.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_in_ring(rows):
    """Division-free determinant over any commutative ring.

    Laplace expansion memoised on column subsets, O(2^n * n) ring
    operations; meant for small matrices whose entries are ring elements
    where exact division is awkward: Laurent polynomials, once per tower
    for the characteristic polynomial P(x) = det(D - A_x), and, in the
    tests' l_value_at_one oracle, cyclotomic integers of the ring that
    tests/oracles.py builds on the package's CycInt record (the package's
    own CycInt has no arithmetic).  Entries must support +, -, * and
    truthiness.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("det_in_ring needs at least a 1x1 matrix")
    memo = {}

    def expand(mask):
        got = memo.get(mask)
        if got is not None:
            return got
        cols = [c for c in range(n) if mask >> c & 1]
        row = n - len(cols)
        if len(cols) == 1:
            memo[mask] = rows[row][cols[0]]
            return rows[row][cols[0]]
        acc = None
        for pos, c in enumerate(cols):
            entry = rows[row][c]
            if not entry:
                continue
            term = entry * expand(mask & ~(1 << c))
            if acc is None:
                acc = term if pos % 2 == 0 else -term
            elif pos % 2 == 0:
                acc = acc + term
            else:
                acc = acc - term
        if acc is None:
            # whole row vanishes on these columns; zero of the ring
            acc = rows[row][cols[0]] * expand(mask & ~(1 << cols[0]))
        memo[mask] = acc
        return acc

    return expand((1 << n) - 1)


def solve_linear_fractions(matrix, rhs):
    """Solve A x = b exactly over Q.  Returns a list of Fractions, or None
    when the matrix is singular."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


_MOD_PRIME_BITS = 25  # entries are below 2^25, and so are the narrowest CRT primes
_PASS_BYTES = 32 << 20  # front memory of one det_mod_prime pass from det_exact_modular


class _Csr(NamedTuple):
    """Compressed sparse rows of a square integer matrix: the nonzeros of row
    i are vals[ptr[i]:ptr[i + 1]], in the increasing columns
    cols[ptr[i]:ptr[i + 1]]."""

    ptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def rows(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(len(self.ptr) - 1), np.diff(self.ptr))


def _pointers(rows: np.ndarray, n: int) -> np.ndarray:
    """Row pointers of the entries of an n-row matrix listed row by row."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))


def _csr(mat) -> _Csr:
    """The CSR copy of a square symmetric integer matrix, read with no n x n
    temporary.  Refuses entries of 2^25 or more in absolute value, checked
    on the raw entries before the int64 cast, so no uint64 or Python
    integer wraps; then refuses a matrix that is not symmetric."""
    mat = np.asarray(mat)
    rows, cols = np.nonzero(mat)  # row by row, columns increasing
    vals = mat[rows, cols]
    if ((vals >= 1 << _MOD_PRIME_BITS) | (vals <= -(1 << _MOD_PRIME_BITS))).any():
        raise ValueError("entries too large for the modular path")
    vals = vals.astype(np.int64)
    at = np.lexsort((rows, cols))  # the entries of the transpose, row by row
    if not ((cols[at] == rows).all() and (rows[at] == cols).all() and (vals[at] == vals).all()):
        raise ValueError("matrix is not symmetric; the modular determinant takes reduced Laplacians")
    return _Csr(_pointers(rows, len(mat)), cols, vals)


def _permuted(mat: _Csr, order) -> _Csr:
    """The CSR of the matrix whose row and column i are row and column
    order[i] of ``mat``."""
    n = len(order)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    rows, cols = pos[mat.rows()], pos[mat.cols]
    at = np.lexsort((cols, rows))
    return _Csr(_pointers(rows, n), cols[at], mat.vals[at])


def _prime_ceiling(pivots: int) -> int:
    """Largest p with pivots (p - 1)^2 + 2^25 < 2^62: an entry starts below
    2^25 in absolute value, plus residues that its children add, and absorbs
    at most one product below (p - 1)^2 per pivot of its front."""
    return math.isqrt(((1 << 62) - (1 << _MOD_PRIME_BITS) - 1) // pivots) + 1


def _distinct(x: np.ndarray) -> np.ndarray:
    """Distinct values of a nonnegative integer array, increasing (np.unique imports numpy.ma)."""
    x = np.sort(x)
    return x[np.diff(x, prepend=-1) != 0]


_LEAF = 8  # parts of at most this many rows are fronts, not dissected further


def _dissection(mat: _Csr) -> tuple[list[int], list[int]]:
    """Nested-dissection order of a symmetric matrix's pattern, read off its
    CSR, and the ends of its fronts in that order (George 1973).  Components
    of at most _LEAF vertices are packed into fronts of at most _LEAF.  A
    larger one is searched breadth-first from a last-level vertex of a
    first search, and the middle level of that second search is a front:
    no edge joins the levels before it to those after it.  What is left is
    split the same way.  Fronts come in postorder, separators after their
    parts.
    """
    n = len(mat.ptr) - 1
    cols, cuts = mat.cols.tolist(), mat.ptr.tolist()
    nbrs = [cols[cuts[v]:cuts[v + 1]] for v in range(n)]
    seen = [0] * n  # the last search that reached a vertex; inf once in a front
    stamp = 0
    fronts = []  # in preorder, every subtree in one run
    far = []  # a last-level vertex of each component still to split

    def levels_from(v):
        nonlocal stamp
        stamp += 1
        seen[v] = stamp
        levels = [[v]]
        while levels[-1]:
            levels.append([])
            for w in levels[-2]:
                for u in nbrs[w]:
                    if seen[u] < stamp:
                        seen[u] = stamp
                        levels[-1].append(u)
        return levels[:-1]

    def front(vertices):
        for v in vertices:
            seen[v] = math.inf
        fronts.append(vertices)

    def parts(vertices):
        first, leaf = stamp, []
        for v in vertices:
            if seen[v] > first:
                continue  # searched in this call
            levels = levels_from(v)
            part = [u for level in levels for u in level]
            if len(part) > _LEAF:
                far.append(levels[-1][0])
                continue
            if len(leaf) + len(part) > _LEAF:
                front(leaf)
                leaf = []
            leaf += part
        if leaf:
            front(leaf)

    parts(range(n))
    while far:
        levels = levels_from(far.pop())
        mid = len(levels) // 2
        front(levels[mid])
        parts([u for level in levels[:mid] + levels[mid + 1:] for u in level])
    fronts.reverse()
    return [v for f in fronts for v in f], np.cumsum([len(f) for f in fronts]).tolist()


class _Fronts(NamedTuple):
    """The symbolic phase of a matrix, all that det_mod_prime reads of it.

    ``fronts`` lists every front as (index, pivots, at, vals, children), in
    the order they are eliminated (see ``_fronts``).  ``pivots`` is the
    most pivots of one front, the lazy-reduction cadence that sizes the
    primes.  ``peak`` bounds the bytes per prime that det_mod_prime holds
    at once: a front, one temporary no larger (its first rank-1 update, or
    a child's block being placed), and every update block still waiting
    for its parent, the front's children included.
    """

    fronts: list[tuple]
    pivots: int
    peak: int


def _fronts(mat: _Csr) -> _Fronts:
    """The symbolic phase: the fronts of the symmetric matrix ``mat``, rows
    renumbered in the nested-dissection order of its nonzero pattern.  Each
    front is (index, pivots, at, vals, children).  The dense front holds
    rows and columns ``index``, increasing: ``pivots`` pivot rows, then the
    later rows its pivots reach in the pattern or in its children's update
    rows.  The matrix entries ``vals`` go to its flat positions ``at``:
    each entry, at its own row and column, to the front that pivots its
    earlier row or column, so a front holds its pivot rows and columns
    whole.  Each (child, positions) pair in ``children`` places a child's
    update block; a front's parent pivots the first of its update rows.
    """
    order, ends = _dissection(mat)
    mat = _permuted(mat, order)
    front_of = np.repeat(np.arange(len(ends)), np.diff([0] + ends))
    rows, cols = mat.rows(), mat.cols
    owner = front_of[np.minimum(rows, cols)]
    by, cuts = np.argsort(owner, kind="stable"), _pointers(owner, len(ends))
    upds, fronts = [], []
    children = [[] for _ in ends]
    pending = peak = 0  # entries per prime of the update blocks not yet taken
    for t, (start, end) in enumerate(zip([0] + ends, ends)):
        reach = [mat.cols[mat.ptr[start]:mat.ptr[end]]] + [upds[c] for c in children[t]]
        upd = _distinct(np.concatenate(reach))
        upd = upd[upd >= end]
        index = np.concatenate((np.arange(start, end), upd))
        f = len(index)
        peak = max(peak, 2 * f * f + pending)
        pending += len(upd) ** 2 - sum(len(upds[c]) ** 2 for c in children[t])
        e = by[cuts[t]:cuts[t + 1]]
        at = np.searchsorted(index, rows[e]) * f + np.searchsorted(index, cols[e])
        locs = [(c, np.searchsorted(index, upds[c])) for c in children[t]]
        into = [(c, (loc[:, None] * f + loc).ravel()) for c, loc in locs]
        if len(upd):
            children[front_of[upd[0]]].append(t)
        upds.append(upd)
        fronts.append((index, end - start, at, mat.vals[e], into))
    return _Fronts(fronts, int(np.diff([0] + ends).max(initial=1)), 8 * peak)


def det_mod_prime(mat, primes) -> list[int | None]:
    """Determinants of a symmetric integer matrix modulo each of a sequence
    of primes.

    ``mat`` is the symbolic record ``_fronts`` builds, as det_exact_modular
    passes it, or a dense symmetric array, which is read the same way.  One
    symmetric multifrontal elimination over F_p for all the primes at once
    (Duff and Reid 1983), with no pivoting: the determinant is the product
    of the pivots.  A front is an int64 array of shape (f, f, primes),
    primes innermost so that each row update is one contiguous run; it
    takes its entries and its children's update blocks, eliminates its
    pivots by rank-1 steps, and passes its trailing block on, reduced
    modulo p.  It stays symmetric modulo p, so each reduced pivot column
    serves as the pivot row.  A vanishing pivot whose column in the front
    vanishes too makes the matrix singular modulo p, residue 0.  Any other
    vanishing pivot fails its prime, whose entry is None: on a reduced
    Laplacian that happens only when p divides a leading minor, and
    det_exact_modular replaces the prime.

    Each step reduces only the pivot column, and every front starts from
    raw entries and reduced update blocks, so an entry absorbs at most one
    product below p^2 per pivot of its front.  With m the most pivots of
    one front, a prime p with m (p - 1)^2 + 2^25 >= 2^62 is
    refused: m up to 4096 admits every p < 2^25, and m = 64 admits p up to
    2^28; n does not enter.
    """
    primes = [int(p) for p in primes]
    if isinstance(mat, np.ndarray):
        mat = _fronts(_csr(mat))
    top = max(primes)
    if top > _prime_ceiling(mat.pivots):
        raise ValueError(
            f"front too large for lazy-reduction elimination: {mat.pivots} pivots at p = {top}")
    ps = np.array(primes, dtype=np.int64)
    det = np.ones(len(primes), dtype=np.int64)
    failed = np.zeros(len(primes), dtype=bool)
    pending = {}
    for t, (index, s, at, vals, children) in enumerate(mat.fronts):
        f = len(index)
        block = np.zeros((f * f, len(primes)), dtype=np.int64)
        block[at] = vals[:, None]
        for c, into in children:
            block[into] += pending.pop(c)
        block = block.reshape(f, f, len(primes))
        for k in range(s):
            col = block[k:, k]
            col %= ps
            pivot = col[0].tolist()
            if 0 in pivot:
                failed |= (col[0] == 0) & (det != 0) & col[1:].any(axis=0)
            det = det * col[0] % ps
            if k + 1 < f:
                inv = np.array([pow(x, -1, p) if x else 0 for x, p in zip(pivot, primes)], dtype=np.int64)
                block[k + 1:, k + 1:] -= (col[1:] * inv % ps)[:, None] * col[1:]
        if s < f:
            pending[t] = (block[s:, s:] % ps).reshape(-1, len(primes))
        del block, col  # the front and its view, before the next is allocated
    return [None if bad else r for bad, r in zip(failed.tolist(), (det % ps).tolist())]


def _log2_det_bound(mat: _Csr) -> float:
    """log2 of prod a_ii, which bounds det, or -inf when a row is zero.

    The modular determinant's domain is that of reduced Laplacians:
    symmetric (_csr checks that) and weakly diagonally dominant with a
    nonnegative diagonal, so positive semidefinite by Gershgorin, where
    det <= prod a_ii (Hadamard-Fischer).  Refuses any other matrix with a
    ValueError naming the condition it breaks.  In the domain a zero
    diagonal entry leaves its row zero.
    """
    rows, cols, vals = mat.rows(), mat.cols, mat.vals
    diag = np.zeros(len(mat.ptr) - 1, dtype=np.int64)
    on = rows == cols
    diag[rows[on]] = vals[on]
    # sum_j |a_ij| per row; 2 a_ii >= it says a_ii >= sum_{j != i} |a_ij|
    abs_sums = np.diff(np.concatenate(([0], np.cumsum(np.abs(vals))))[mat.ptr])
    for broken, why in (
            ((diag < 0).any(), "has a negative diagonal entry"),
            ((2 * diag < abs_sums).any(), "is not weakly diagonally dominant")):
        if broken:
            raise ValueError(f"matrix {why}; the modular determinant takes reduced Laplacians")
    if not diag.all():
        return -math.inf
    return float(np.log2(diag).sum())


def det_exact_modular(rows) -> int:
    """Exact determinant of a reduced Laplacian by CRT over front-sized primes.

    ``rows`` is an int64 array or any sequence of integer rows, with
    entries below 2^25 in absolute value, in the domain ``_csr`` and
    ``_log2_det_bound`` check.  It is read once into a CSR copy and no other
    n x n array is built: memory is O(nonzeros + the pass budget) beside
    the caller's input, which goes once it is read unless the caller still
    holds it.
    The symbolic phase runs once.  The primes are the widest that
    det_mod_prime's guard admits for its largest front, and no narrower
    than 2^25, so a front past about 4096 pivots is refused there.  They
    are drawn until their product passes 2^8 prod a_ii, over twice |det|,
    so the centered CRT lift is exact: deterministic, not probabilistic.
    A prime det_mod_prime fails is dropped and drawing goes on; on this
    domain only the finitely many primes dividing a leading minor fail.
    Each draw runs in the fewest passes whose live fronts and update
    blocks fit 32 MB, with pass sizes differing by at most one.
    """
    n = len(rows)
    if n == 0:
        return 1
    mat = _csr(rows)
    del rows  # so that the caller's dense array can go now
    target = _log2_det_bound(mat) + 8.0  # float slop + the factor of 2 for the signed lift
    if target == -math.inf:
        return 0  # a zero row
    sym = _fronts(mat)
    fits = max(1, _PASS_BYTES // sym.peak)
    # the largest odd number at or below the ceiling, 2^25 - 1 at the least
    c = (max(_prime_ceiling(sym.pivots), 1 << _MOD_PRIME_BITS) - 1) | 1
    x, modulus = 0, 1
    while math.log2(modulus) < target:
        primes, got = [], math.log2(modulus)
        while got < target:
            while not is_prime(c):
                c -= 2
            primes.append(c)
            got += math.log2(c)
            c -= 2
        passes = -(-len(primes) // fits)
        cuts = [i * len(primes) // passes for i in range(passes + 1)]
        for lo, hi in zip(cuts, cuts[1:]):
            for p, r in zip(primes[lo:hi], det_mod_prime(sym, primes[lo:hi])):
                if r is not None:
                    x += modulus * ((r - x) * pow(modulus, -1, p) % p)
                    modulus *= p
    if x > modulus // 2:
        x -= modulus
    return x
