"""Exact linear algebra: fraction-free and modular determinants, rational solves.

Everything returned from this module is exact.  Floating point shows up only
inside the determinant bound for the modular determinant, where it is
padded conservatively before being used to pick how many primes to take.

The modular determinant reads its input once into compressed sparse rows
(CSR) and builds no other n x n array.  det_exact_modular orders it by
reverse Cuthill-McKee of the pattern of A + A^T, whose envelope (George
and Liu 1981, ch. 4), w + 1 rows per step, sizes the primes: the
lazy-reduction guard bounds the products an entry absorbs between
reductions by w + 1, so the limit is on the band, not on n, and the primes
are as wide as the band allows, 2^28 to 2^29 on tower layers, never below
2^25.  det_mod_prime eliminates a batch of primes at once, front by front
in nested-dissection order, without pivoting.  A prime goes to banded
elimination with row swaps only when a pivot vanishes modulo it beside a
live row and column: on a connected layer, when it divides a leading
minor, which no fixture layer shows; the tests' small primes, zero
diagonals and non-symmetric input do it often.  Passes fit the banded
strips, 2w + 1 rows high, in 32 MB; a layer's fronts take less.
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
_PASS_BYTES = 32 << 20  # strip memory of one det_mod_prime pass from det_exact_modular


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
    """The CSR copy of a square integer matrix, read with no n x n temporary.

    Refuses entries of 2^25 or more in absolute value, checked on the raw
    entries before the int64 cast, so no uint64 or Python integer wraps."""
    mat = np.asarray(mat)
    rows, cols = np.nonzero(mat)  # row by row, columns increasing
    vals = mat[rows, cols]
    if ((vals >= 1 << _MOD_PRIME_BITS) | (vals <= -(1 << _MOD_PRIME_BITS))).any():
        raise ValueError("entries too large for the modular path")
    return _Csr(_pointers(rows, len(mat)), cols, vals.astype(np.int64))


def _permuted(mat: _Csr, order) -> _Csr:
    """The CSR of the matrix whose row and column i are row and column
    order[i] of ``mat``."""
    n = len(order)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    rows, cols = pos[mat.rows()], pos[mat.cols]
    at = np.lexsort((cols, rows))
    return _Csr(_pointers(rows, n), cols[at], mat.vals[at])


def _prime_ceiling(height: int) -> int:
    """Largest p with height (p - 1)^2 + 2^25 < 2^62: between two refills an
    entry starts below 2^25 in absolute value and absorbs at most height
    products below (p - 1)^2."""
    return math.isqrt(((1 << 62) - (1 << _MOD_PRIME_BITS) - 1) // height) + 1


def _envelope(mat: _Csr):
    """Elimination bounds of a square matrix, read from its nonzero pattern.

    rows_to[k] is the largest of k and the rows whose first nonzero is at
    or before column k, so no row below it is nonzero in column k at step
    k.  cols_to[k] is the largest of k and the last nonzeros of the rows up
    to rows_to[k], so no row the step touches reaches past it.  Row swaps
    stay inside k..rows_to[k] and an update only merges row extents, so
    both bounds hold under any pivoting; a band of width w has rows_to[k]
    <= k + w and cols_to[k] <= k + 2w.  Also returns the window height
    w + 1 = max(rows_to[k] - k) + 1, which is the number of steps per
    strip, and the (rows, columns) shape of the strip, min(2w + 1, n) by
    min(w + max(cols_to[k] - k) + 1, n).  A zero row counts as starting at
    column n and ending at column -1.
    """
    n = len(mat.ptr) - 1
    full = mat.ptr[1:] > mat.ptr[:-1]
    first = np.full(n, n)
    last = np.full(n, -1)
    first[full] = mat.cols[mat.ptr[:-1][full]]
    last[full] = mat.cols[mat.ptr[1:][full] - 1]
    steps = np.arange(n)
    lowest = np.full(n + 1, -1)
    np.maximum.at(lowest, first, steps)
    rows_to = np.maximum(np.maximum.accumulate(lowest[:n]), steps)
    cols_to = np.maximum(np.maximum.accumulate(last)[rows_to], steps)
    height = int((rows_to - steps).max(initial=0)) + 1
    width = int((cols_to - steps).max(initial=0)) + 1
    return rows_to, cols_to, height, (min(2 * height - 1, n), min(height + width - 1, n))


def _banded(mat: _Csr, primes: list[int]) -> list[int]:
    """Determinants of a CSR integer matrix modulo primes its band guard
    admits, for those det_mod_prime fails: elimination with row swaps in
    the envelope.  Step k searches its pivot in rows k..R_k and updates
    rows k+1..R_k up to the pivot row's last nonzero column, inside C_k;
    a strip of (strip rows, strip columns, primes) holds the active rows
    and every w + 1 steps moves them up, reduced, and takes fresh rows raw.
    Each step reduces only the pivot column and row, so an entry absorbs at
    most w + 1 products between refills.
    """
    n = len(mat.ptr) - 1
    rows_to, cols_to, height, shape = _envelope(mat)
    ps = np.array(primes, dtype=np.int64)
    each = np.arange(len(primes))
    strip = np.empty(shape + (len(primes),), dtype=np.int64)
    det = np.ones(len(primes), dtype=np.int64)
    rows = mat.rows()
    for s in range(0, n, height):
        kept = max(int(rows_to[s - 1]) - s + 1, 0) if s else 0
        # no step of this strip reads a row past rows_to of its last step,
        # and those rows end by column s + nc
        nr, nc = int(rows_to[min(s + height, n) - 1]) - s + 1, min(shape[1], n - s)
        if kept:
            # touched rows reach no further than cols_to[s - 1], inside the old strip
            m = min(shape[1] - height, nc)
            np.remainder(strip[height:height + kept, height:height + m], ps, out=strip[:kept, :m])
            strip[:kept, m:nc] = 0
        strip[kept:nr, :nc] = 0
        # rows past rows_to[s - 1] have no nonzero left of column s
        fresh = slice(mat.ptr[s + kept], mat.ptr[s + nr])
        strip[rows[fresh] - s, mat.cols[fresh] - s] = mat.vals[fresh, None]
        for k in range(s, min(s + height, n)):
            j = k - s
            low, right = int(rows_to[k]) - s + 1, int(cols_to[k]) - s + 1
            col = strip[j:low, j]
            col %= ps
            lead = (col != 0).argmax(axis=0)
            if lead.any():
                pivot_rows = strip[j + lead, j:right, each]
                strip[j + lead, j:right, each] = strip[j, j:right].T
                strip[j, j:right] = pivot_rows.T
                det[lead != 0] *= -1
            row = strip[j, j:right]
            row %= ps
            det = det * row[0] % ps
            if low > j + 1:
                inv = [pow(x, -1, p) if x else 0 for x, p in zip(row[0].tolist(), primes)]
                factors = col[1:] * np.array(inv, dtype=np.int64) % ps
                right -= int(row.any(axis=1)[::-1].argmax())
                strip[j + 1:low, j + 1:right] -= factors[:, None] * row[1:right - j]
    return (det % ps).tolist()


def _distinct(x: np.ndarray) -> np.ndarray:
    """Distinct values of a nonnegative integer array, increasing (np.unique imports numpy.ma)."""
    x = np.sort(x)
    return x[np.diff(x, prepend=-1) != 0]


def _pattern(mat: _Csr) -> _Csr:
    """The nonzero pattern of A + A^T, as a CSR of ones."""
    n = len(mat.ptr) - 1
    i, j = mat.rows(), mat.cols
    i, j = np.divmod(_distinct(np.concatenate((i * n + j, j * n + i))), n)
    return _Csr(_pointers(i, n), j, np.ones_like(j))


_LEAF = 8  # parts of at most this many rows are fronts, not dissected further


def _dissection(pattern: _Csr) -> tuple[list[int], list[int]]:
    """Nested-dissection order of a symmetric pattern, given as CSR, and the
    ends of its fronts in that order (George 1973).  Components of at most
    _LEAF vertices are packed into fronts of at most _LEAF.  A larger one
    is searched breadth-first from a last-level vertex of a first search,
    and the middle level of that second search is a front: no edge joins
    the levels before it to those after it.  What is left is split the
    same way.  Fronts come in postorder, separators after their parts.
    """
    n = len(pattern.ptr) - 1
    cols, cuts = pattern.cols.tolist(), pattern.ptr.tolist()
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


def _fronts(mat: _Csr) -> list[tuple]:
    """The symbolic phase: the fronts of ``mat``, rows renumbered in the
    nested-dissection order of the pattern of A + A^T, each as (index,
    pivots, at, vals, children).  The dense front holds rows and columns
    ``index``, increasing: ``pivots`` pivot rows, then the later rows its
    pivots reach in the pattern or in its children's update rows.  The
    matrix entries ``vals`` go to its flat positions ``at``: each entry, at
    its own row and column, to the front that pivots its earlier row or
    column, so pivot columns are read from A^T, not mirrored.  Each (child,
    positions) pair in ``children`` places a child's update block; a
    front's parent pivots the first of its update rows.
    """
    order, ends = _dissection(_pattern(mat))
    mat = _permuted(mat, order)
    pattern = _pattern(mat)
    front_of = np.repeat(np.arange(len(ends)), np.diff([0] + ends))
    rows, cols = mat.rows(), mat.cols
    owner = front_of[np.minimum(rows, cols)]
    by, cuts = np.argsort(owner, kind="stable"), _pointers(owner, len(ends))
    upds, fronts = [], []
    children = [[] for _ in ends]
    for t, (start, end) in enumerate(zip([0] + ends, ends)):
        reach = [pattern.cols[pattern.ptr[start]:pattern.ptr[end]]] + [upds[c] for c in children[t]]
        upd = _distinct(np.concatenate(reach))
        upd = upd[upd >= end]
        index = np.concatenate((np.arange(start, end), upd))
        f = len(index)
        e = by[cuts[t]:cuts[t + 1]]
        at = np.searchsorted(index, rows[e]) * f + np.searchsorted(index, cols[e])
        locs = [(c, np.searchsorted(index, upds[c])) for c in children[t]]
        into = [(c, (loc[:, None] * f + loc).ravel()) for c, loc in locs]
        if len(upd):
            children[front_of[upd[0]]].append(t)
        upds.append(upd)
        fronts.append((index, end - start, at, mat.vals[e], into))
    return fronts


def det_mod_prime(mat, primes) -> list[int]:
    """Determinants of an integer matrix modulo each of a sequence of primes.

    ``mat`` is the CSR copy det_exact_modular makes, or a dense array, which
    is converted the same way.  One multifrontal elimination over F_p for
    all the primes at once (Duff and Reid 1983), with no pivoting: the
    determinant is the product of the pivots.  A front is an int64 array
    of shape (f, f, primes), primes innermost so that each row update is
    one contiguous run; it takes its entries and its children's update
    blocks, eliminates its pivots by rank-1 steps, and passes its trailing
    block on, reduced modulo p.  A vanishing pivot whose column or row in
    the front vanishes too makes the matrix singular modulo p, residue 0;
    any other fails its prime, which ``_banded`` redoes.

    Each step reduces only the pivot column and row, and a front reduces
    its trailing block every w + 1 steps (w + 1 the envelope height), so
    an entry, below 2^25 in absolute value (as in ``mat``) plus added
    residues, absorbs at most w + 1 products below p^2 between reductions.
    The guard refuses (w + 1)(p - 1)^2 + 2^25 >= 2^62: w + 1 up to 4096
    at every p < 2^25, p up to 2^28 at w + 1 = 64; n does not enter.
    """
    primes = [int(p) for p in primes]
    if isinstance(mat, np.ndarray):
        mat = _csr(mat)
    height = _envelope(mat)[2]
    top = max(primes)
    if top > _prime_ceiling(height):
        raise ValueError(
            f"band too wide for lazy-reduction elimination: {height} rows per step at p = {top}")
    ps = np.array(primes, dtype=np.int64)
    det = np.ones(len(primes), dtype=np.int64)
    failed = np.zeros(len(primes), dtype=bool)
    pending = {}
    for t, (index, s, at, vals, children) in enumerate(_fronts(mat)):
        f = len(index)
        block = np.zeros((f * f, len(primes)), dtype=np.int64)
        block[at] = vals[:, None]
        for c, into in children:
            block[into] += pending.pop(c)
        block = block.reshape(f, f, len(primes))
        for k in range(s):
            if k and k % height == 0:
                block[k:, k:] %= ps
            col = block[k:, k]
            col %= ps
            row = block[k, k + 1:]
            row %= ps
            pivot = col[0].tolist()
            if 0 in pivot:
                failed |= (col[0] == 0) & (det != 0) & col[1:].any(axis=0) & row.any(axis=0)
            det = det * col[0] % ps
            if k + 1 < f:
                inv = np.array([pow(x, -1, p) if x else 0 for x, p in zip(pivot, primes)], dtype=np.int64)
                block[k + 1:, k + 1:] -= (col[1:] * inv % ps)[:, None] * row
        if s < f:
            pending[t] = (block[s:, s:] % ps).reshape(-1, len(primes))
    redo = np.flatnonzero(failed)
    if len(redo):
        det[redo] = _banded(mat, ps[redo].tolist())
    return (det % ps).tolist()


def _rcm_order(adjacency: _Csr) -> list[int]:
    """Reverse Cuthill-McKee order of a symmetric pattern, given as CSR.

    Breadth-first search from a least-degree vertex of each component,
    taking neighbours by increasing degree, then reversed (Cuthill and
    McKee 1969; George and Liu 1981).  A degree is the number of nonzeros
    in a row, the diagonal included; ties go to the lower index, and the
    components come in the order of their starting vertices.  It reads the
    pattern only: ``adjacency.ptr`` and ``adjacency.cols``.
    """
    degree = np.diff(adjacency.ptr)
    rows, cols = adjacency.rows(), adjacency.cols
    # every row's neighbours, already in the order the search takes them
    nbrs = cols[np.lexsort((cols, degree[cols], rows))].tolist()
    cuts = adjacency.ptr.tolist()
    seen = [False] * len(degree)
    order = []
    head = 0
    for start in np.argsort(degree, kind="stable").tolist():
        if seen[start]:
            continue
        seen[start] = True
        order.append(start)
        while head < len(order):
            v = order[head]
            head += 1
            for u in nbrs[cuts[v]:cuts[v + 1]]:
                if not seen[u]:
                    seen[u] = True
                    order.append(u)
    return order[::-1]


def _log2_det_bound(mat: _Csr) -> float:
    """log2 of a bound on |det| of a matrix with no zero row.

    Hadamard's, the product of the row norms, unless the matrix is
    symmetric and weakly diagonally dominant with a nonnegative diagonal:
    then it is positive semidefinite by Gershgorin, and det <= prod a_ii
    (Hadamard-Fischer).
    """
    rows, cols, vals = mat.rows(), mat.cols, mat.vals
    starts = mat.ptr[:-1]  # every row is nonempty, as reduceat needs
    at = np.lexsort((rows, cols))  # the entries of the transpose, row by row
    symmetric = (cols[at] == rows).all() and (rows[at] == cols).all() and (vals[at] == vals).all()
    diag = np.zeros(len(starts), dtype=np.int64)
    on = rows == cols
    diag[rows[on]] = vals[on]
    # 2 a_ii >= sum_j |a_ij| says a_ii >= 0 and a_ii >= sum_{j != i} |a_ij|
    if symmetric and (2 * diag >= np.add.reduceat(np.abs(vals), starts)).all():
        return float(np.log2(diag).sum())
    squares = vals.astype(np.float64) ** 2
    return 0.5 * float(np.log2(np.add.reduceat(squares, starts)).sum())


def det_exact_modular(rows) -> int:
    """Exact determinant of an integer matrix by CRT over band-sized primes.

    ``rows`` is an int64 array or any sequence of integer rows, with
    entries below 2^25 in absolute value.  It is read once into a CSR copy,
    row pointers, column indices and int64 values, and no other n x n array
    is built: memory is O(nonzeros + the pass budget) beside the caller's
    input, which goes once it is read unless the caller still holds it.
    The matrix is permuted symmetrically by the reverse Cuthill-McKee order
    of the pattern of A + A^T, which narrows the envelope that sizes the
    primes and the fallback's strips and leaves the determinant alone.
    The number of primes is chosen so their product exceeds twice a bound
    on |det| (see ``_log2_det_bound``), which makes the centered CRT lift
    exact; this is a deterministic computation, not a probabilistic one.
    The primes are the largest that det_mod_prime's guard admits for the
    envelope height w + 1, and no narrower than 2^25, so a wide band is
    refused there rather than run on small primes.  The prime list is
    built first and goes to det_mod_prime in one pass when the banded
    strips of all primes fit in a fixed budget of 32 MB; otherwise in the
    fewest passes that fit, with pass sizes differing by at most one.
    """
    n = len(rows)
    if n == 0:
        return 1
    mat = _csr(rows)
    del rows  # so that the caller's dense array can go now
    if not np.diff(mat.ptr).all():
        return 0  # a zero row
    target = _log2_det_bound(mat) + 8.0  # float slop + the factor of 2 for the signed lift
    mat = _permuted(mat, _rcm_order(_pattern(mat)))

    _, _, height, shape = _envelope(mat)
    primes = []
    got = 0.0
    # the largest odd number at or below the ceiling, 2^25 - 1 at the least
    c = (max(_prime_ceiling(height), 1 << _MOD_PRIME_BITS) - 1) | 1
    while got < target:
        while not is_prime(c):
            c -= 2
        primes.append(c)
        got += math.log2(c)
        c -= 2
    fits = max(1, _PASS_BYTES // (8 * shape[0] * shape[1]))
    passes = -(-len(primes) // fits)
    cuts = [i * len(primes) // passes for i in range(passes + 1)]
    residues = []
    for lo, hi in zip(cuts, cuts[1:]):
        residues += det_mod_prime(mat, primes[lo:hi])

    x = 0
    modulus = 1
    for p, r in zip(primes, residues):
        t = (r - x) * pow(modulus, -1, p) % p
        x += modulus * t
        modulus *= p
    if x > modulus // 2:
        x -= modulus
    return x
