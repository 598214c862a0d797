"""The characteristic polynomial P(x) = det(D - A_x) of a voltage
specification, and every value read off it.

A_x is the adjacency matrix with the section edge s carrying the monomial
x^alpha(s) and its inverse x^(-alpha(s)), so P is an integer Laurent
polynomial in x_1, ..., x_d, computed once with one det_in_ring.  Each
value the package needs is a specialization of P:

* the character of exact order ell^k indexed by a sends x_i to zeta^(a_i),
  which gives the twisted special value det(D - A_psi) in Z[zeta_(ell^k)]
  (character_value);
* the classical point (1 - zeta^(a_1), ..., 1 - zeta^(a_d)) of the unit
  polydisk is the same substitution written in T_i = 1 - x_i
  (evaluate_at_classical_point);
* x_i = 1 - T_i, expanded as power series in T, gives the determinant
  series Q(T) = det(D - A_rho) with rho(a) = prod_i (1 - T_i)^(a_i)
  (q_series).

Values are exact.  Only the listing of Q's coefficients has a window
(total degree at most a cap), and no value is ever computed from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .cyclotomic import CycInt, phi_ell_power
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


def character_value(poly: LaurentPoly, ell: int, level: int, avec) -> CycInt:
    """P(zeta^(a_1), ..., zeta^(a_d)) with zeta a primitive ell^level-th
    root of unity, built without any ring multiplications.

    Each term c x^e lands on zeta^(a.e mod ell^level).  An exponent
    x >= phi is reduced in one step by
    zeta^x = -(zeta^(x-phi) + zeta^(x-phi+s) + ... + zeta^(x-phi+(ell-2)s))
    with s = ell^(level-1); every index on the right is below phi.
    """
    m = ell**level
    phi = phi_ell_power(ell, level)
    step = ell ** (level - 1) if level else 1
    vec = [0] * phi
    for e, c in poly.terms.items():
        x = sum(a * b for a, b in zip(avec, e)) % m
        if x < phi:
            vec[x] += c
        else:
            for j in range(x - phi, phi, step):
                vec[j] -= c
    return CycInt(ell, level, vec)


# the determinant series Q(T) ----------------------------------------------------


@dataclass
class TruncatedSeries:
    """The coefficients of a d-variable power series up to total degree
    cap; exponents not listed have coefficient zero."""

    num_vars: int
    cap: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if any(len(expo) != self.num_vars for expo in self.coeffs):
            raise ValueError("exponent arity mismatch")
        self.coeffs = {tuple(e): c for e, c in self.coeffs.items() if c and sum(e) <= self.cap}

    def coefficient(self, expo) -> int:
        return self.coeffs.get(tuple(expo), 0)

    def truncate(self, cap: int) -> "TruncatedSeries":
        if cap > self.cap:
            raise ValueError("cannot extend a truncation")
        return TruncatedSeries(self.num_vars, cap, dict(self.coeffs))


def default_truncation(spec: VoltageSpec) -> int:
    """Heuristic coefficient window: generous enough to expose the
    lambda-relevant coefficients in the worked one-variable cases."""
    biggest = max(sum(abs(a) for a in row) for row in spec.alpha)
    return 2 * biggest * spec.ell + 8


def _one_minus_t_coefficient(a: int, t: int) -> int:
    """The coefficient of T^t in (1 - T)^a; the geometric series handles
    a < 0."""
    return (-1) ** t * comb(a, t) if a >= 0 else comb(t - a - 1, t)


def q_series(spec: VoltageSpec, cap: int | None = None) -> TruncatedSeries:
    """Q(T) = P(1 - T_1, ..., 1 - T_d) up to total degree cap.  The term
    c x^e contributes c * prod_i [T_i^(t_i)] (1 - T_i)^(e_i) to the
    coefficient of T^t.  The constant term is P(1, ..., 1) = det(D - A) = 0."""
    if cap is None:
        cap = default_truncation(spec)
    poly = char_poly(spec)
    if sum(poly.terms.values()):
        raise RuntimeError("constant term of Q should vanish (singular Laplacian)")
    coeffs: dict = {}
    for e, c in poly.terms.items():
        partial = {(): c}
        for a in e:
            row = [_one_minus_t_coefficient(a, t) for t in range(cap + 1)]
            partial = {
                key + (t,): v * row[t]
                for key, v in partial.items()
                for t in range(cap + 1 - sum(key))
                if row[t]
            }
        for key, v in partial.items():
            coeffs[key] = coeffs.get(key, 0) + v
    return TruncatedSeries(spec.d, cap, coeffs)


# exact evaluation at classical points ------------------------------------------


@dataclass(frozen=True)
class ClassicalPoint:
    """The point (1 - zeta^(a_1), ..., 1 - zeta^(a_d)) of the open unit
    polydisk, kept symbolic: substituting it into 1 - T_i gives zeta^(a_i)."""

    ell: int
    level: int
    exponents: tuple[int, ...]


def evaluate_at_classical_point(spec: VoltageSpec, point: ClassicalPoint) -> CycInt:
    """Exact value of Q at a classical point, i.e. P at x_i = zeta^(a_i).
    No truncation is involved, so this equals the twisted special value on
    the nose."""
    if len(point.exponents) != spec.d:
        raise ValueError("point arity does not match the tower rank")
    return character_value(char_poly(spec), point.ell, point.level, point.exponents)


# one-variable Weierstrass data --------------------------------------------------


def iwasawa_invariants_d1(q: TruncatedSeries, ell: int):
    """(mu, lambda) of a one-variable series from its computed window.

    mu is the least coefficient valuation seen; lambda the least index
    carrying a unit coefficient of q / ell^mu.  Returns None when no
    computed coefficient of q / ell^mu is a unit (the window cannot
    certify lambda).  Both numbers are relative to the window: a
    coefficient beyond the truncation can always lower mu.
    """
    if q.num_vars != 1:
        raise ValueError("one-variable series required")
    dense = [q.coefficient((i,)) for i in range(q.cap + 1)]
    if not any(dense):
        raise ValueError("series is zero to the computed precision")
    mu = min(ord_prime(abs(c), ell) for c in dense if c)
    for i, c in enumerate(dense):
        if c and ord_prime(abs(c), ell) == mu:
            return mu, i
    return None
