"""Exact linear algebra: fraction-free and modular determinants, rational solves.

Everything returned from this module is exact.  Floating point shows up only
inside the Hadamard bound estimate for the modular determinant, where it is
padded conservatively before being used to pick how many primes to take.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (the 12-base test, exact below 3.3e24)."""
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
    for the characteristic polynomial P(x) = det(D - A_x), and cyclotomic
    integers in the l_value_at_one oracle.  Entries must support +, -, *
    and truthiness.
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


_MOD_PRIME_BITS = 25  # row updates accumulate n products of < 2^50 in int64


def det_mod_prime(mat: np.ndarray, p: int) -> int:
    """Determinant of an integer matrix modulo a prime p < 2^25.

    Gaussian elimination over F_p with lazy reduction: entries are kept as
    arbitrary int64 representatives of their residue classes and only the
    pivot column and pivot row are reduced each step, so the O(n^3) bulk
    is pure multiply-subtract.  Safe for n up to 4096 at every p < 2^25: an
    entry absorbs at most n products below 2^50 plus its own value, and
    the guard below refuses larger n at the first prime the CRT loop takes.
    """
    a = np.mod(mat, p).astype(np.int64)
    n = a.shape[0]
    if n * (p - 1) ** 2 + p >= 1 << 62:
        raise ValueError("matrix too large for lazy-reduction elimination at this prime")
    det = 1
    for k in range(n):
        a[k:, k] %= p
        nz = np.nonzero(a[k:, k])[0]
        if nz.size == 0:
            return 0
        i = k + int(nz[0])
        if i != k:
            a[[k, i]] = a[[i, k]]
            det = -det
        a[k, k:] %= p
        pivot = int(a[k, k])
        det = det * pivot % p
        if k + 1 < n:
            inv = pow(pivot, -1, p)
            factors = a[k + 1:, k] * inv % p
            a[k + 1:, k + 1:] -= np.outer(factors, a[k, k + 1:])
    return det % p


def det_exact_modular(rows) -> int:
    """Exact determinant of an integer matrix by CRT over 25-bit primes.

    The number of primes is chosen so their product exceeds twice the
    Hadamard bound, which makes the centered CRT lift exact; this is a
    deterministic computation, not a probabilistic one.
    """
    n = len(rows)
    if n == 0:
        return 1
    bits = 0.0
    for r in rows:
        s = 0
        for x in r:
            s += x * x
        if s == 0:
            return 0
        bits += 0.5 * math.log2(s)
    target = bits + 8.0  # float slop + the factor of 2 for the signed lift
    mat = np.array(rows, dtype=np.int64)
    if np.any(np.abs(mat) >= 1 << _MOD_PRIME_BITS):
        raise ValueError("entries too large for the modular path")

    primes = []
    residues = []
    got = 0.0
    c = (1 << _MOD_PRIME_BITS) - 1
    while got < target:
        while not is_prime(c):
            c -= 2
        primes.append(c)
        residues.append(det_mod_prime(mat, c))
        got += math.log2(c)
        c -= 2

    x = 0
    modulus = 1
    for p, r in zip(primes, residues):
        t = (r - x) * pow(modulus, -1, p) % p
        x += modulus * t
        modulus *= p
    if x > modulus // 2:
        x -= modulus
    return x
