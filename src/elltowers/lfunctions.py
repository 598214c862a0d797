"""Special values of twisted graph L-functions along a tower.

For a character psi of (Z/ell^n Z)^d indexed by a vector a, the twisted
adjacency matrix has entries sum psi(alpha(s)) + psi(-alpha(s)) over the
section edges joining the two vertices, and the special value of interest
is det(D - A_psi), a cyclotomic integer.  Production code reads it off the
tower's characteristic polynomial P(x) = det(D - A_x) (series.char_poly),
computed once per TowerCalculator; twisted_adjacency and l_value_at_one
build the twisted matrix directly and stay as the independent oracle the
tests compare P against.  Characters fall into Galois orbits under the
diagonal action of (Z/ell^n Z)^x; the product of the values over one
orbit is a rational integer, equal to the norm of the value at any orbit
member taken from the field its exact order generates.

The tree-number identity used everywhere downstream:

    ell^(d n) * kappa_n = kappa_X * prod over nontrivial orbits of the
                          orbit values,

so ord_ell(kappa_n) = -d n + ord_ell(kappa_X) + sum of the per-orbit
pi-adic orders (exact, no norms needed; full integers come on demand via
resultants).  Each level is one batched pass: the values of all its orbit
representatives are rows of one integer array (series.character_values)
and their orders come from one pi_adic_ords call, in chunks of at most
about _CHUNK_ENTRIES work entries so memory stays flat as the level grows.
The only cache is TowerCalculator's per-level orders and norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .cyclotomic import (  # noqa: F401  (pi_adic_ord: perfbench/tracer.py looks it up here)
    CycInt,
    norm_to_int,
    phi_ell_power,
    pi_adic_ord,
    pi_adic_ords,
    zeta_power,
)
from .graphs import validate_base
from .linalg import det_in_ring
from .series import LaurentPoly, char_poly, character_value, character_values
from .treecount import TreeCount, kappa_matrix_tree, ord_prime
from .voltage import DisconnectedCoverError, VoltageSpec, check_tower_connectivity, reduce_voltage


@dataclass(frozen=True)
class CharacterIndex:
    level: int
    vector: tuple[int, ...]


@dataclass(frozen=True)
class CharacterOrbit:
    ell: int
    level: int
    representative: CharacterIndex
    exact_order: int
    size: int

    def members(self) -> list[CharacterIndex]:
        m = self.ell**self.level
        rep = self.representative.vector
        out = {tuple(u * x % m for x in rep) for u in range(1, self.exact_order) if u % self.ell}
        return [CharacterIndex(self.level, v) for v in sorted(out)]


@dataclass(frozen=True)
class LValueRecord:
    orbit: CharacterOrbit
    ord_ell: int
    integer_value: int | None


# the oracle: one twisted determinant per character ------------------------------


def twisted_adjacency(spec: VoltageSpec, n: int, chi: CharacterIndex):
    """The adjacency matrix twisted by the character indexed by chi:
    entry (i, j) sums zeta^(a.alpha(s)) over section edges from v_i to
    v_j plus zeta^(-a.alpha(s)) over those from v_j to v_i."""
    if chi.level != n:
        raise ValueError("character level does not match the requested layer")
    if len(chi.vector) != spec.d:
        raise ValueError("character index has the wrong number of coordinates")
    g = spec.base
    ell = spec.ell
    m = ell**n
    alpha_n = reduce_voltage(spec, n)
    rows = [[CycInt.zero(ell, n) for _ in range(g.n_vertices)] for _ in range(g.n_vertices)]
    for idx, s in enumerate(spec.section.edges):
        i, j = g.origin(s), g.terminus(s)
        c = sum(a * b for a, b in zip(chi.vector, alpha_n[idx])) % m
        rows[i][j] = rows[i][j] + zeta_power(ell, n, c)
        rows[j][i] = rows[j][i] + zeta_power(ell, n, -c)
    return rows


def l_value_at_one(spec: VoltageSpec, n: int, chi: CharacterIndex) -> CycInt:
    """det(D - A_psi): the special value of the twisted determinant
    polynomial at u = 1.  Zero exactly at the trivial character (for a
    connected tower)."""
    g = spec.base
    a_psi = twisted_adjacency(spec, n, chi)
    val = g.valencies()
    rows = [
        [
            (CycInt.integer(spec.ell, n, val[i]) - a_psi[i][j]) if i == j else -a_psi[i][j]
            for j in range(g.n_vertices)
        ]
        for i in range(g.n_vertices)
    ]
    return det_in_ring(rows)


# orbit enumeration ------------------------------------------------------------


def _primitive_orbit_reps(ell: int, k: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least members of the unit-group orbits on the
    primitive vectors modulo ell^k (those with a unit coordinate).

    Each orbit contains exactly one vector v whose first unit coordinate is
    1; that normal form enumerates the orbits.  If v's first nonzero
    coordinate is ell^t * w, w a unit, it reads ell^t * (u w mod ell^(k-t))
    in u * v, so the least member is u * v for some u = w^-1 mod ell^(k-t):
    a coset of ell^t units, just {1} when that coordinate is the pivot.
    """
    m = ell**k
    reps = []
    for pivot in range(d):
        for prefix in product(range(0, m, ell), repeat=pivot):
            for suffix in product(range(m), repeat=d - 1 - pivot):
                v = prefix + (1,) + suffix
                lead = next(x for x in v if x)
                t = ord_prime(lead, ell)
                step = ell ** (k - t)
                coset = range(pow(lead // ell**t, -1, step), m, step)
                reps.append(min(tuple(u * x % m for x in v) for u in coset))
    reps.sort()
    return tuple(reps)


def enumerate_orbits(ell: int, n: int, d: int) -> list[CharacterOrbit]:
    """All Galois orbits of nontrivial characters of (Z/ell^n Z)^d,
    sorted by (exact order, representative): levels ascend, and scaling a
    level's sorted representatives by ell^(n-k) keeps their order."""
    if n < 1:
        raise ValueError("need n >= 1")
    orbits = []
    for k in range(1, n + 1):
        scale = ell ** (n - k)
        for prim in _primitive_orbit_reps(ell, k, d):
            rep = CharacterIndex(n, tuple(scale * x for x in prim))
            orbits.append(CharacterOrbit(ell, n, rep, ell**k, phi_ell_power(ell, k)))
    return orbits


def orbit_records(spec: VoltageSpec, n: int, *, digit_limit: int = 0) -> list[LValueRecord]:
    """All orbit records at layer n in canonical order: the pi-adic order
    of each orbit product, and its exact integer (a resultant norm).

    An orbit of exact order ell^k takes its order from level_ords(k) and
    its integer from the norm of its value at level k (degree phi(ell^k),
    not phi(ell^n)), which equals the orbit product.  A positive digit
    limit skips integer values whose predicted size (phi * log10 of the
    coefficient 1-norm, an upper bound) exceeds it; orders stay exact.  The
    spec goes through TowerCalculator, so an inadmissible base or a
    disconnected tower is rejected as in the tables.
    """
    calc = TowerCalculator(spec)
    orbits = iter(enumerate_orbits(spec.ell, n, spec.d))
    out = []
    for k in range(1, n + 1):
        for value, order in zip(calc.level_values(k), calc.level_ords(k)):
            skip = 0 < digit_limit < _digit_bound(value)
            out.append(LValueRecord(next(orbits), order, None if skip else _checked_norm(value, order)))
    return out


def _checked_norm(value: CycInt, order: int) -> int:
    """The norm of an orbit value, checked against its pi-adic order."""
    integer = norm_to_int(value)
    if integer <= 0 or ord_prime(integer, value.ell) != order:
        raise RuntimeError("norm and pi-adic order disagree; internal inconsistency")
    return integer


def _digit_bound(value: CycInt) -> int:
    l1 = sum(abs(c) for c in value.coeffs)
    return int(len(value.coeffs) * math.log10(max(l1, 2))) + 1


# the tower calculator ----------------------------------------------------------


# entries of one chunk of a level's (representatives x ell^k) work array:
# bounds the memory of one batched pass whatever the level
_CHUNK_ENTRIES = 2**17


class TowerCalculator:
    """Caches per-level orbit data for one voltage specification.

    Level k data (values of characters of exact order ell^k) is the same
    for every layer n >= k, so the tables for n = 1..n_max cost one pass
    per level, not one per layer; this is the package's only cache.  Every
    value is a specialization of the characteristic polynomial P, built on
    first use; values, orders and norms of a level all read the same
    chunked rows of character_values.
    """

    def __init__(self, spec: VoltageSpec):
        report = validate_base(spec.base)
        if not report.ok:
            raise ValueError("base graph is not admissible: " + "; ".join(report.reasons))
        conn = check_tower_connectivity(spec)
        if not conn.ok:
            raise DisconnectedCoverError("; ".join(conn.reasons))
        self.spec = spec
        self._level_ords: dict[int, tuple[int, ...]] = {}
        self._level_norms: dict[int, tuple[int, ...]] = {}
        self._base: TreeCount | None = None
        self._poly: LaurentPoly | None = None

    @property
    def poly(self) -> LaurentPoly:
        """P(x) = det(D - A_x), computed once."""
        if self._poly is None:
            self._poly = char_poly(self.spec)
        return self._poly

    def value(self, k: int, avec) -> CycInt:
        """h(1, psi) for the character indexed by avec at its exact level k."""
        return character_value(self.poly, self.spec.ell, k, avec)

    def base_tree_count(self) -> TreeCount:
        if self._base is None:
            self._base = kappa_matrix_tree(self.spec.base, self.spec.ell)
        return self._base

    def _level_rows(self, k: int):
        """Values of all exact-level-k orbit representatives, in the order
        of _primitive_orbit_reps(ell, k, d), as successive arrays of
        power-basis rows (character_values) of at most about _CHUNK_ENTRIES
        work entries each."""
        ell = self.spec.ell
        prims = _primitive_orbit_reps(ell, k, self.spec.d)
        step = max(1, _CHUNK_ENTRIES // ell**k)
        for i in range(0, len(prims), step):
            yield character_values(self.poly, ell, k, prims[i : i + step])

    def level_values(self, k: int):
        """The exact-level-k orbit values as CycInts, read from _level_rows(k)."""
        for rows in self._level_rows(k):
            for row in rows.tolist():
                yield CycInt(self.spec.ell, k, row)

    def level_ords(self, k: int) -> tuple[int, ...]:
        """pi-adic orders of all exact-level-k orbit values, aligned with
        _primitive_orbit_reps(ell, k, d): one pi_adic_ords pass per chunk."""
        got = self._level_ords.get(k)
        if got is None:
            chunks = [pi_adic_ords(rows, self.spec.ell) for rows in self._level_rows(k)]
            got = self._level_ords[k] = tuple(np.concatenate(chunks).tolist())
        return got

    def level_norms(self, k: int) -> tuple[int, ...]:
        """Norms of the exact-level-k orbit values, checked against level_ords(k)."""
        got = self._level_norms.get(k)
        if got is None:
            pairs = zip(self.level_values(k), self.level_ords(k))
            got = self._level_norms[k] = tuple(_checked_norm(v, o) for v, o in pairs)
        return got

    def ord_valuation(self, n: int) -> int:
        """ord_ell(kappa_n) via the orbit-sum formula; exact, no norms."""
        base = self.base_tree_count()
        total = base.ord_ell
        for k in range(1, n + 1):
            total += sum(self.level_ords(k))
        return total - self.spec.d * n

    def kappa_exact(self, n: int) -> int:
        """The full tree number of layer n from the orbit-norm product."""
        spec = self.spec
        base = self.base_tree_count()
        prod = base.kappa
        for k in range(1, n + 1):
            for v in self.level_norms(k):
                prod *= v
        denominator = spec.ell ** (spec.d * n)
        if prod % denominator:
            raise RuntimeError("orbit product is not divisible by ell^(d n); internal inconsistency")
        return prod // denominator
