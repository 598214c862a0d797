"""Elements of prime-power cyclotomic integer rings: storage, valuations
and norms.

An element of Z[zeta], zeta a primitive ell^n-th root of unity, is stored
as an integer coefficient vector of length phi(ell^n) = (ell-1) ell^(n-1),
i.e. a residue class modulo the sparse cyclotomic polynomial

    Phi(x) = 1 + x^(ell^(n-1)) + x^(2 ell^(n-1)) + ... + x^((ell-1) ell^(n-1)).

The package never adds or multiplies elements: it builds their rows with
numpy (series.character_values), stores one as a CycInt record, takes its
order at the uniformizer pi = 1 - zeta of the unique (totally ramified)
prime above ell, read off from the ell-content and a computation modulo
ell, and its norm down to Z as an integer resultant.  No complex
embedding, no floating point, no precision to manage.  The ring
arithmetic on these records, which the tests build oracle values with,
lives in tests/oracles.py.

level n = 0 is allowed and degenerates to plain integers, which is
convenient for trivial characters.
"""

from __future__ import annotations

import numpy as np


def phi_ell_power(ell: int, level: int) -> int:
    """Euler phi of ell^level."""
    if level == 0:
        return 1
    return (ell - 1) * ell ** (level - 1)


class CycInt:
    """A cyclotomic integer as a record: level (ell, n) plus its phi(ell^n)
    power-basis coefficients, equal and hashed by all three."""

    __slots__ = ("ell", "level", "coeffs")

    def __init__(self, ell, level, coeffs):
        self.ell = ell
        self.level = level
        phi = phi_ell_power(ell, level)
        coeffs = tuple(coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"need exactly {phi} coefficients at level ({ell},{level})")
        self.coeffs = coeffs

    def __eq__(self, other):
        if not isinstance(other, CycInt):
            return NotImplemented
        return (self.ell, self.level, self.coeffs) == (other.ell, other.level, other.coeffs)

    def __hash__(self):
        return hash((self.ell, self.level, self.coeffs))

    def __repr__(self):
        return f"CycInt(ell={self.ell}, level={self.level}, coeffs={self.coeffs})"


# valuations -----------------------------------------------------------------


def _residues(x: np.ndarray, ell: int) -> np.ndarray:
    """x mod ell as int64, by floor division, multiply and subtract in one
    buffer (several times faster than np.remainder on int64 arrays)."""
    r = x // ell
    r *= ell
    np.subtract(x, r, out=r)
    return r.astype(np.int64, copy=False)


def _first_taylor_coefficient(x: np.ndarray, ell: int, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Per row of residues x: the least j whose Taylor coefficient at 1,
    c_j = sum_e C(e, j) x_e mod ell, is nonzero, and whether there is one.
    The column index is a mixed-radix number with digit sizes `sizes`
    (lowest first, each at most ell), so by Lucas the transform is one
    Pascal matrix mod ell per digit axis, applied in place.  A digit
    multiplies the entries' bound by at most ell^2, so they are reduced mod
    ell only when the next digit could pass 2^62: at ell = 2 never before
    the end."""
    stride, bound = 1, ell
    for s in sizes:
        if bound >= 2**62 // ell**2:
            x, bound = _residues(x, ell), ell
        bound *= ell**2
        v = x.reshape(-1, s, stride)
        row = [1]
        for e in range(1, s):  # column e is read before any update writes it
            row = [(a + b) % ell for a, b in zip([0] + row, row + [0])]  # C(e, j) mod ell
            for j, c in enumerate(row[:e]):
                if c:
                    v[:, j] += v[:, e] if c == 1 else c * v[:, e]
        stride *= s
    nonzero = _residues(x, ell) != 0
    return nonzero.argmax(axis=1), nonzero.any(axis=1)


def fold_ords(fold: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row g of a fold of width m = ell^a (integers, read mod ell),
    the order of g mod ell at X = 1 when it is below m, and whether it is
    (False exactly when g = 0 mod ell).  Over F_ell, X^m - 1 = (X - 1)^m,
    so a row f folded mod X^m - 1 has f's order r when r < m and is 0
    exactly when r >= m.  The Taylor shift goes digit by digit (Lucas: one
    ell x ell Pascal transform mod ell per base-ell digit of the index)."""
    a = 0
    while ell**a < fold.shape[1]:
        a += 1
    return _first_taylor_coefficient(_residues(fold, ell), ell, [ell] * a)


def pi_adic_ords(rows: np.ndarray, ell: int) -> np.ndarray:
    """Orders at the prime above ell of a batch of nonzero elements of one
    level, given as rows of power-basis coefficients (int64 with entries
    below 2^62, or Python integers as dtype=object; both take this code).

    The prime is totally ramified: ell = pi^phi * unit with pi = 1 - zeta,
    and Phi = (X - 1)^phi mod ell (Washington, Introduction to Cyclotomic
    Fields, ch. 1).  Dividing a row's ell-content ell^c out contributes
    c * phi; what remains, f mod ell, is a nonzero polynomial of degree
    below phi, and its order r is the least j whose Taylor coefficient
    c_j = sum_e C(e, j) f_e at 1 is nonzero mod ell.  Level 0 (phi = 1) is
    the plain ell-adic valuation of an integer.  A zero row raises
    ValueError.

    The search costs a fixed number of numpy passes whatever the orders:
    after the content is stripped, one Taylor shift of the rows mod ell,
    digit by digit (Lucas: one Pascal transform mod ell per digit of the
    index), over the b digits of ell and the top digit of size t, where
    phi = t * ell^b with t = ell - 1 (1 at level 0 or ell = 2).
    """
    n_rows, phi = rows.shape
    ords = np.zeros(n_rows, dtype=np.int64)
    low = _residues(rows, ell)
    idx = np.flatnonzero(~low.any(axis=1))
    high = rows[idx]
    if not (high != 0).any(axis=1).all():
        raise ValueError("the zero element has infinite valuation")
    while idx.size:  # strip the ell-content of the rows divisible by ell
        high //= ell
        ords[idx] += phi
        part = low[idx] = _residues(high, ell)
        done = part.any(axis=1)
        idx, high = idx[~done], high[~done]
    b, top = 0, phi
    while top % ell == 0:
        b, top = b + 1, top // ell
    return ords + _first_taylor_coefficient(low, ell, [ell] * b + [top])[0]


def pi_adic_ord(x: CycInt) -> int:
    """Order of x at the prime above ell, normalized so 1 - zeta has order 1:
    pi_adic_ords on the single row of x's coefficients."""
    dtype = np.int64 if max(map(abs, x.coeffs)) < 2**62 else object
    return int(pi_adic_ords(np.array([x.coeffs], dtype=dtype), x.ell)[0])


# norms ----------------------------------------------------------------------


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _pseudo_remainder(a, b):
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * a mod b, over Z."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    for k in range(len(r) - 1 - db, -1, -1):
        c = r[db + k]
        r = [lb * x for x in r]
        if c:
            for j, bj in enumerate(b):
                r[k + j] -= c * bj
        r[db + k] = 0
    return _trim(r[:db])


def _resultant(a, b) -> int:
    """Resultant of two integer polynomials via the subresultant PRS.

    Fraction-free: every division below is exact by the subresultant
    theory.  With a monic first argument, Res(a, b) is the product of b
    over the roots of a.
    """
    a = _trim(list(a))
    b = _trim(list(b))
    if not a or not b:
        return 0
    s = 1
    if len(a) < len(b):
        if (len(a) - 1) % 2 == 1 and (len(b) - 1) % 2 == 1:
            s = -s
        a, b = b, a
    g = 1
    h = 1
    while len(b) - 1 > 0:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        r = _pseudo_remainder(a, b)
        a, b = b, [c // (g * h**delta) for c in r]
        if not b:
            return 0
        g = a[-1]
        if delta > 0:
            h = g**delta // h ** (delta - 1)
    da = len(a) - 1
    if da == 0:
        return s
    return s * b[0] ** da // h ** (da - 1)


def _cyclotomic_polynomial(ell, level):
    """Phi_{ell^level} as a little-endian coefficient list."""
    step = ell ** (level - 1)
    phi = phi_ell_power(ell, level)
    p = [0] * (phi + 1)
    for j in range(ell):
        p[j * step] = 1
    return p


def norm_to_int(x: CycInt) -> int:
    """Norm of x down to Z, as the resultant of its representative
    polynomial with the cyclotomic polynomial of its level.

    This is the product of the images of x under all phi(ell^n) embeddings;
    callers working with an element fixed by a subgroup must account for
    the extra multiplicity themselves.
    """
    if x.level == 0:
        return x.coeffs[0]
    phi = len(x.coeffs)
    f = _trim(list(x.coeffs))
    if not f:
        return 0
    if len(f) == 1:
        return f[0] ** phi
    return _resultant(_cyclotomic_polynomial(x.ell, x.level), f)

