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
ell (pi_adic_ords on a batch of rows), and its norm down to Z as its
integer resultant against Phi.  An element given only by a few terms
c zeta^e, such as a value of a sparse polynomial, takes its order from
those terms with no row (sparse_ord), and so does its fold mod
X^(ell^i) - 1 and mod ell.
No complex embedding, no floating point, no precision to manage.  The ring
arithmetic on these records, which the tests build oracle values with,
lives in tests/oracles.py.

level n = 0 is allowed and degenerates to plain integers, which is
convenient for trivial characters.
"""

from __future__ import annotations

from math import comb

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


def _first_taylor_coefficient(x: np.ndarray, ell: int, sizes) -> np.ndarray:
    """Per row of residues x, nonzero mod ell: the least j whose Taylor
    coefficient at 1, c_j = sum_e C(e, j) x_e mod ell, is nonzero.
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
    return (_residues(x, ell) != 0).argmax(axis=1)


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
    return ords + _first_taylor_coefficient(low, ell, [ell] * b + [top])


def pi_adic_ord(x: CycInt) -> int:
    """Order of x at the prime above ell, normalized so 1 - zeta has order 1:
    pi_adic_ords on the single row of x's coefficients."""
    dtype = np.int64 if max(map(abs, x.coeffs)) < 2**62 else object
    return int(pi_adic_ords(np.array([x.coeffs], dtype=dtype), x.ell)[0])


def sparse_ord(terms, ell: int, level: int, *, fold: bool = False) -> int | None:
    """Order at pi = 1 - zeta of sum c zeta^e over the (exponent, coefficient)
    pairs in terms (any Python integers; repeated exponents add up), zeta a
    primitive ell^level-th root of unity, in O(level * ell^2 * T) dictionary
    operations for T terms, with no dense row.

    With fold, the terms are read mod X^(ell^level) - 1 = (X - 1)^(ell^level)
    and mod ell: the fold's order at X = 1, or None when it vanishes.
    Otherwise each exponent x >= phi is first reduced mod Phi_(ell^level),
    zeta^x = -sum_(j < ell-1) zeta^(x-phi+j ell^(level-1)); then the
    ell-content ell^c is stripped, adding c * phi.  A zero element raises
    ValueError.  The order of the rest g mod ell is the least j with
    sum_e g_e C(e, j) != 0 mod ell, and by Lucas its base-ell digits come
    from the top: the top digit is the least j_t whose
    G = sum_(e_t) C(e_t, j_t) (the terms with top digit e_t, that digit
    dropped) is nonzero mod ell, and the search goes on in G.  The lower
    Pascal transforms are invertible mod ell, so G != 0 says exactly that
    some Taylor coefficient with this top digit is nonzero.
    """
    m = ell**level
    placed: dict[int, int] = {}
    for e, c in terms:
        e %= m
        placed[e] = placed.get(e, 0) + c
    content = 0
    if not fold:
        phi, s = phi_ell_power(ell, level), m // ell
        for x in [x for x in placed if x >= phi]:
            c = placed.pop(x)
            for j in range(ell - 1):
                placed[x - phi + j * s] = placed.get(x - phi + j * s, 0) - c
        placed = {e: c for e, c in placed.items() if c}
        if not placed:
            raise ValueError("the zero element has infinite valuation")
        while all(c % ell == 0 for c in placed.values()):
            placed = {e: c // ell for e, c in placed.items()}
            content += phi
    g = {e: c % ell for e, c in placed.items() if c % ell}
    if not g:
        return None
    pascal = [[comb(t, j) % ell for j in range(ell)] for t in range(ell)]
    order = 0
    for p in reversed(range(level)):
        step = ell**p
        split = [(*divmod(e, step), c) for e, c in g.items()]
        for j in range(ell):
            top: dict[int, int] = {}
            for t, r, c in split:
                if pascal[t][j]:
                    top[r] = (top.get(r, 0) + pascal[t][j] * c) % ell
            g = {r: c for r, c in top.items() if c}
            if g:
                order += j * step
                break
    return content + order


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


def norm_to_int(x: CycInt) -> int:
    """Norm of x down to Z: the resultant Res(Phi, f) of the cyclotomic
    polynomial Phi of x's level with x's representative polynomial f,
    which is the product of f over the roots of the monic Phi.

    This is the product of the images of x under all phi(ell^n) embeddings;
    callers working with an element fixed by a subgroup must account for
    the extra multiplicity themselves.

    One subresultant PRS (Brown and Traub, JACM 1971), fraction-free: every
    division below is exact.  Phi is irreducible and a nonzero f has degree
    below phi, so the chain starts with Phi, the degree falls at every
    step, and no remainder vanishes before a constant one ends it.  A
    constant f gives f^phi; the zero element gives 0.
    """
    if x.level == 0:
        return x.coeffs[0]
    b = _trim(list(x.coeffs))
    if not b:
        return 0
    a = [0] * (len(x.coeffs) + 1)
    a[:: x.ell ** (x.level - 1)] = [1] * x.ell  # Phi = sum_(j < ell) X^(j ell^(level-1))
    s = g = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        r = _pseudo_remainder(a, b)
        a, b = b, [c // (g * h ** (da - db)) for c in r]
        g = a[-1]
        h = g ** (da - db) // h ** (da - db - 1)
    return s * b[0] ** (len(a) - 1) // h ** (len(a) - 2)
