"""The characteristic polynomial P(x) = det(D - A_x) of a voltage
specification, and every value read off it.

A_x is the adjacency matrix with the section edge s carrying the monomial
x^alpha(s) and its inverse x^(-alpha(s)), so P is an integer Laurent
polynomial in x_1, ..., x_d, computed once with one det_in_ring.  Each
value the package needs is a specialization of P:

* the character of exact order ell^k indexed by a sends x_i to zeta^(a_i),
  which gives the twisted special value det(D - A_psi) in Z[zeta_(ell^k)]
  (character_values: one integer row per character, a whole batch of
  characters per call); the classical point (1 - zeta^(a_1), ...,
  1 - zeta^(a_d)) of the unit polydisk is the same substitution written
  in T_i = 1 - x_i, so these rows are Q's exact values there too;
* x_i = 1 - T_i gives the determinant series Q(T) = det(D - A_rho) with
  rho(a) = prod_i (1 - T_i)^(a_i); after P is multiplied by the monomial
  x^m that clears its negative powers, the same substitution gives the
  exact polynomial prod_i (1 - T_i)^(m_i) Q(T) (q_series).
"""

from __future__ import annotations

from math import comb

import numpy as np

from .cyclotomic import phi_ell_power
from .linalg import det_in_ring
from .treecount import ord_prime
from .voltage import VoltageSpec


class LaurentPoly:
    """An integer Laurent polynomial in d variables, stored as a dict from
    exponent tuples (negative entries allowed) to nonzero coefficients.
    Has exactly the ring operations det_in_ring uses."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def __bool__(self):
        return bool(self.terms)


def char_poly(spec: VoltageSpec) -> LaurentPoly:
    """P(x) = det(D - A_x), where entry (i, j) of A_x sums x^alpha(s) over
    the section edges s from v_i to v_j and x^(-alpha(s)) over those from
    v_j to v_i."""
    g = spec.base
    val = g.valencies()
    rows = [
        [{(0,) * spec.d: val[i]} if i == j else {} for j in range(g.n_vertices)]
        for i in range(g.n_vertices)
    ]
    for s, e in zip(spec.section.edges, spec.alpha):
        i, j = g.origin(s), g.terminus(s)
        for r, c, x in ((i, j, tuple(e)), (j, i, tuple(-a for a in e))):
            rows[r][c][x] = rows[r][c].get(x, 0) - 1
    return det_in_ring([[LaurentPoly(entry) for entry in row] for row in rows])


def character_values(poly: LaurentPoly, ell: int, level: int, avecs) -> np.ndarray:
    """P(zeta^(a_1), ..., zeta^(a_d)) for each index vector a in avecs, with
    zeta a primitive ell^level-th root of unity: one row of power-basis
    coefficients per vector, built without any ring multiplications.

    Each term c x^e lands on zeta^(a.e mod ell^level): one matrix product
    gives every (character, term) exponent, and one np.add.at places all
    the coefficients, summing the terms that land on the same power.
    The block of exponents [phi, ell^level) is then folded down in one
    step by zeta^x = -(zeta^(x-phi) + zeta^(x-phi+s) + ... +
    zeta^(x-phi+(ell-2)s)) with s = ell^(level-1).  Index vectors and
    exponents are reduced mod ell^level first, so their products fit int64
    whenever the output fits in memory, whatever the voltages and the
    level.  Every entry is
    bounded by the sum of |c| over P's terms: below 2^62 the rows are int64,
    otherwise Python integers (dtype=object), through the same code.
    An index vector with other than d entries, for P in d variables, is
    refused with a ValueError.
    """
    m = ell**level
    phi = phi_ell_power(ell, level)
    dtype = np.int64 if sum(map(abs, poly.terms.values())) < 2**62 else object
    d = len(next(iter(poly.terms), ()))  # the tower rank; the zero P has no terms to tell it
    a = np.asarray(avecs, dtype=object)
    if a.ndim != 2 or (poly and a.shape[1] != d):
        raise ValueError(f"index vectors must have {d} entries, the tower rank")
    a = (a % m).astype(np.int64)
    exps = (np.array(list(poly.terms), dtype=object).reshape(-1, a.shape[1]) % m).astype(np.int64)
    targets = a @ exps.T % m
    work = np.zeros((len(a), m), dtype=dtype)
    coeffs = np.array(list(poly.terms.values()), dtype=dtype)
    np.add.at(work, (np.arange(len(a))[:, None], targets), coeffs)
    s = m // ell
    for j in range(ell - 1):
        work[:, j * s : (j + 1) * s] -= work[:, phi:]
    return work[:, :phi]


# the determinant series Q(T) ----------------------------------------------------


def q_series(spec: VoltageSpec) -> tuple[tuple[int, ...], LaurentPoly]:
    """The determinant series Q(T) = P(1 - T_1, ..., 1 - T_d) as the pair
    (m, Q^) with m_i = max(0, -(least exponent of x_i in P)) and
    Q^ = x^m P(x) at x_i = 1 - T_i, a polynomial in T.

    Q^ = prod_i (1 - T_i)^(m_i) Q(T), and that factor is a unit of
    Z_ell[[T]], so Q^ has Q's lowest-degree form and mu and, for d = 1,
    Q's lambda; Q itself is Q^ times prod_i (1 - T_i)^(-m_i).  The term
    c x^e contributes c * prod_i [T_i^(t_i)] (1 - T_i)^(e_i + m_i) to the
    coefficient of T^t.  The constant term is P(1, ..., 1) = det(D - A) = 0."""
    poly = char_poly(spec)
    if sum(poly.terms.values()):
        raise RuntimeError("constant term of Q should vanish (singular Laplacian)")
    m = tuple(max(0, -min((e[i] for e in poly.terms), default=0)) for i in range(spec.d))
    coeffs: dict = {}
    for e, c in poly.terms.items():
        partial = {(): c}
        for a in map(sum, zip(e, m)):
            partial = {
                key + (t,): v * (-1) ** t * comb(a, t)
                for key, v in partial.items()
                for t in range(a + 1)
            }
        for key, v in partial.items():
            coeffs[key] = coeffs.get(key, 0) + v
    return m, LaurentPoly(coeffs)


# one-variable Weierstrass data --------------------------------------------------


def iwasawa_invariants_d1(q: LaurentPoly, ell: int) -> tuple[int, int]:
    """(mu, lambda) of a nonzero one-variable polynomial in T, such as the
    Q^ of q_series.

    mu is the least ell-adic valuation of a coefficient and lambda the
    least index carrying a unit coefficient of q / ell^mu; by Weierstrass
    preparation these are the invariants of q, and of Q for d = 1 since
    Q^ is Q times a unit.
    """
    if any(len(e) != 1 or e[0] < 0 for e in q.terms):
        raise ValueError("one-variable polynomial in T required")
    if not q:
        raise ValueError("zero polynomial has no Iwasawa invariants")
    mu = min(ord_prime(abs(c), ell) for c in q.terms.values())
    return mu, min(t for (t,), c in q.terms.items() if ord_prime(abs(c), ell) == mu)
