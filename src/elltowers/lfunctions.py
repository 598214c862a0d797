"""Special values of twisted graph L-functions along a tower.

For a character psi of (Z/ell^n Z)^d indexed by a vector a, the twisted
adjacency matrix has entries sum psi(alpha(s)) + psi(-alpha(s)) over the
section edges joining the two vertices, and the special value of interest
is det(D - A_psi), a cyclotomic integer.  Production code reads it off the
tower's characteristic polynomial P(x) = det(D - A_x) (series.char_poly),
computed once per TowerCalculator; twisted_adjacency and l_value_at_one
build the twisted matrix directly and stay as the independent oracle the
tests compare P against.  Characters fall into Galois
orbits under the diagonal action of (Z/ell^n Z)^x; the product of the
values over one orbit is a rational integer, equal to the norm of the
value at any orbit member taken from the field its exact order generates.

The tree-number identity used everywhere downstream:

    ell^(d n) * kappa_n = kappa_X * prod over nontrivial orbits of the
                          orbit values,

so ord_ell(kappa_n) = -d n + ord_ell(kappa_X) + sum of the per-orbit
pi-adic orders.  Orders are computed exactly (no norms needed); the full
integers are computed on demand via resultants.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .cyclotomic import (
    CycInt,
    norm_to_int,
    phi_ell_power,
    pi_adic_ord,
    zeta_power,
)
from .graphs import validate_base
from .linalg import det_in_ring
from .series import LaurentPoly, char_poly, character_value
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
        out = set()
        for u in range(1, self.exact_order):
            if u % self.ell == 0:
                continue
            out.add(tuple(u * x % m for x in rep))
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


@lru_cache(maxsize=None)
def _primitive_orbit_reps(ell: int, k: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least members of the unit-group orbits on the
    primitive vectors modulo ell^k (those with a unit coordinate).

    Each orbit contains exactly one vector whose first unit coordinate is
    1; that normal form enumerates the orbits, and the minimum over the
    phi(ell^k) members makes the representative canonical.
    """
    m = ell**k
    units = [u for u in range(1, m) if u % ell]
    reps = []
    for pivot in range(d):
        for prefix in product(range(0, m, ell), repeat=pivot):
            for suffix in product(range(m), repeat=d - 1 - pivot):
                v = prefix + (1,) + suffix
                reps.append(min(tuple(u * x % m for x in v) for u in units))
    reps.sort()
    return tuple(reps)


def enumerate_orbits(ell: int, n: int, d: int) -> list[CharacterOrbit]:
    """All Galois orbits of nontrivial characters of (Z/ell^n Z)^d,
    grouped by exact order and sorted by representative."""
    if n < 1:
        raise ValueError("need n >= 1")
    orbits = []
    for k in range(1, n + 1):
        scale = ell ** (n - k)
        for prim in _primitive_orbit_reps(ell, k, d):
            rep = CharacterIndex(n, tuple(scale * x for x in prim))
            orbits.append(CharacterOrbit(ell, n, rep, ell**k, phi_ell_power(ell, k)))
    orbits.sort(key=lambda o: (o.exact_order, o.representative.vector))
    return orbits


def orbit_records(spec: VoltageSpec, n: int, *, digit_limit: int = 0) -> list[LValueRecord]:
    """All orbit records at layer n in canonical order: the pi-adic order
    of each orbit product, and its exact integer (a resultant norm).

    The representative value is computed at the character's exact order
    ell^k, so the norm is taken from that field: the degree drops from
    phi(ell^n) to phi(ell^k), and the orbit product equals that norm.  A
    positive digit limit skips integer values whose predicted size
    (phi * log10 of the coefficient 1-norm, an upper bound) exceeds it;
    orders stay exact.  The spec goes through TowerCalculator, so an
    inadmissible base or a disconnected tower is rejected as in the tables.
    """
    calc = TowerCalculator(spec)
    out = []
    for orbit in enumerate_orbits(spec.ell, n, spec.d):
        k = n
        while spec.ell**k > orbit.exact_order:
            k -= 1
        scale = spec.ell ** (n - k)
        value = calc.value(k, tuple(x // scale for x in orbit.representative.vector))
        order = pi_adic_ord(value)
        integer = None
        if digit_limit <= 0 or _digit_bound(value) <= digit_limit:
            integer = norm_to_int(value)
            if integer <= 0 or ord_prime(integer, spec.ell) != order:
                raise RuntimeError("norm and pi-adic order disagree; internal inconsistency")
        out.append(LValueRecord(orbit, order, integer))
    return out


def _digit_bound(value: CycInt) -> int:
    l1 = sum(abs(c) for c in value.coeffs)
    return int(len(value.coeffs) * math.log10(max(l1, 2))) + 1


# the tower calculator ----------------------------------------------------------


def _ord_batch_worker(args):
    poly, ell, k, prims = args
    return [pi_adic_ord(character_value(poly, ell, k, p)) for p in prims]


class TowerCalculator:
    """Caches per-level orbit data for one voltage specification.

    Level k data (values of characters of exact order ell^k) is the same
    for every layer n >= k, so the tables for n = 1..n_max cost one pass
    per level, not one per layer.  Every value is a specialization of the
    characteristic polynomial P, built on first use.
    """

    def __init__(self, spec: VoltageSpec, jobs: int = 1):
        report = validate_base(spec.base)
        if not report.ok:
            raise ValueError("base graph is not admissible: " + "; ".join(report.reasons))
        conn = check_tower_connectivity(spec)
        if not conn.ok:
            raise DisconnectedCoverError("; ".join(conn.reasons))
        self.spec = spec
        self.jobs = max(1, jobs)
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

    def level_ords(self, k: int) -> tuple[int, ...]:
        """pi-adic orders of all exact-level-k orbit values, aligned with
        _primitive_orbit_reps(ell, k, d)."""
        got = self._level_ords.get(k)
        if got is not None:
            return got
        spec = self.spec
        prims = _primitive_orbit_reps(spec.ell, k, spec.d)
        ords: list[int]
        if self.jobs > 1 and len(prims) >= 4 * self.jobs:
            chunks = [prims[i :: self.jobs] for i in range(self.jobs)]
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                parts = list(pool.map(_ord_batch_worker, [(self.poly, spec.ell, k, c) for c in chunks]))
            ords = [0] * len(prims)
            for offset, part in enumerate(parts):
                for j, val in enumerate(part):
                    ords[offset + j * self.jobs] = val
        else:
            ords = _ord_batch_worker((self.poly, spec.ell, k, prims))
        result = tuple(ords)
        self._level_ords[k] = result
        return result

    def level_norms(self, k: int) -> tuple[int, ...]:
        got = self._level_norms.get(k)
        if got is not None:
            return got
        spec = self.spec
        prims = _primitive_orbit_reps(spec.ell, k, spec.d)
        norms = tuple(norm_to_int(self.value(k, p)) for p in prims)
        self._level_norms[k] = norms
        return norms

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
