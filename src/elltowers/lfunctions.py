"""Special values of twisted graph L-functions along a tower.

For a character psi of (Z/ell^n Z)^d indexed by a vector a, the twisted
adjacency matrix has entries sum psi(alpha(s)) + psi(-alpha(s)) over the
section edges joining the two vertices, and the special value of interest
is det(D - A_psi), a cyclotomic integer.  It is read off the tower's
characteristic polynomial P(x) = det(D - A_x) (series.char_poly), computed
once per TowerCalculator; the tests check P against the oracle in
tests/oracles.py, which builds each twisted matrix directly and takes its
determinant.  Characters fall into Galois orbits under the
diagonal action of (Z/ell^n Z)^x; the product of the values over one
orbit is a rational integer, equal to the norm of the value at any orbit
member taken from the field its exact order generates.

Each orbit is named by its lexicographically least member, which has a
stabilizer normal form: its lead coordinate is ell^t, and a later
coordinate of valuation s is ell^s * v with v a unit below
ell^(n-max(s, t)), t the least valuation before it.  So the
representatives of all levels are built directly, in sorted order, as one
integer array (_orbit_reps), never by a minimum over an orbit or a coset.
CharacterIndex, CharacterOrbit and LValueRecord are typing.NamedTuple
records: immutable, hashable, equal field by field and picklable, and
cheaper to build than frozen dataclasses, since a table builds one orbit
record per orbit of every layer.

The tree-number identity used everywhere downstream:

    ell^(d n) * kappa_n = kappa_X * prod over nontrivial orbits of the
                          orbit values,

so ord_ell(kappa_n) = -d n + ord_ell(kappa_X) + sum of the per-orbit
pi-adic orders (exact, no norms needed; full integers come on demand via
resultants).  A level's orders come from one fold pass,
TowerCalculator._ords, the package's only fold.  Since Phi_(ell^k) =
(X - 1)^phi mod ell, a value's power-basis row folded mod X^w - 1 and mod
ell, w about sqrt(phi), is P's coefficients mod ell placed at the
exponents a.e mod w, so the orders come from a (representatives x w)
array; only the rows whose fold vanishes get full value rows
(series.character_values) for pi_adic_ords, which strips their content
and takes one Taylor shift.  Full rows of every representative
(TowerCalculator._rows) are built only where values are read: norms and
orbit records.  Every pass runs in chunks of at most about _CHUNK_ENTRIES
entries, so memory stays flat as the level grows.  level_ords caches a
level's orders and level_norms checks its norms against them, so a level
is folded once whatever is asked first; the only cache is
TowerCalculator's per-level orders and norms.
"""

from __future__ import annotations

import functools
import math
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .cyclotomic import (  # noqa: F401  (pi_adic_ord: perfbench/tracer.py looks it up here)
    CycInt,
    fold_ords,
    norm_to_int,
    phi_ell_power,
    pi_adic_ord,
    pi_adic_ords,
)
from .graphs import validate_base
from .linalg import det_in_ring  # noqa: F401  (perfbench/tracer.py looks it up here)
from .series import LaurentPoly, char_poly, character_values
from .treecount import TreeCount, kappa_matrix_tree, ord_prime
from .voltage import DisconnectedCoverError, VoltageSpec, check_tower_connectivity


class CharacterIndex(NamedTuple):
    level: int
    vector: tuple[int, ...]


class CharacterOrbit(NamedTuple):
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


class LValueRecord(NamedTuple):
    orbit: CharacterOrbit
    ord_ell: int
    integer_value: int | None


# orbit enumeration ------------------------------------------------------------


def _orbit_reps(ell: int, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographically least members of the unit-group orbits on the
    nonzero vectors modulo ell^n, as one (orbits x d) integer array sorted
    by (k, vector), and their exact levels k (n minus the least valuation
    of the coordinates: the characters have order ell^k).

    Built coordinate by coordinate: the units fixing the coordinates chosen
    so far form U_t = 1 + ell^(n-t) Z, t the least valuation among them
    (t = n before the first nonzero one).  A next coordinate of valuation s
    then takes the values ell^s * v, v a unit below ell^(n-max(s, t))
    (v = 1 for the lead), and leaves U_min(s,t).  Its choices depend only
    on t, so they are read off one table over the residues, and each row
    followed by its choices in ascending order keeps the rows sorted with
    no sort.  int64 below 2^62, Python integers (dtype=object) otherwise,
    through the same code.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    m = ell**n
    dtype = np.int64 if m < 2**62 else object
    # the lead, ascending: zero (t stays n), then ell^s (t = s)
    reps = np.array([[0]] + [[ell**s] for s in range(n)], dtype=dtype)
    run = np.arange(-1, n) % (n + 1)
    if d > 1:
        # x = ell^s * v is a choice at running t (table row t) when s >= t or
        # v <= ell^(n-t): a unit below that bound for t < n, the lead's v = 1
        # at t = n.  d > 1 gives at least m orbits, so the table over
        # x = 0..m-1 costs no more than the output.
        x = np.arange(m)
        val = np.zeros(m, dtype=np.int64)
        for j in range(1, n + 1):
            val[x % ell**j == 0] = j
        t = np.arange(n + 1)[:, None]
        row_t, choices = np.nonzero((val >= t) | (x // ell**val <= ell ** (n - t)))
        after = np.minimum(val[choices], row_t)
        sizes = np.bincount(row_t, minlength=n + 1)
        starts = np.cumsum(sizes) - sizes
    for _ in range(d - 1):
        counts = sizes[run]
        row = np.repeat(np.arange(len(run)), counts)
        at = np.repeat(starts[run] - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        reps, run = np.column_stack((reps[row], choices[at])), after[at]
    keep = np.concatenate([np.flatnonzero(run == n - k) for k in range(1, n + 1)])  # drops zero
    return reps[keep], n - run[keep]


def _character_orbits(ell: int, n: int, reps: np.ndarray, levels: np.ndarray) -> list[CharacterOrbit]:
    """CharacterOrbits for _orbit_reps' rows, made by _make over the zipped
    columns (no list per row is held alongside them); the exact order and
    orbit size of each row are looked up by its level."""
    order = np.array([ell**k for k in range(n + 1)], dtype=object)
    size = np.array([phi_ell_power(ell, k) for k in range(n + 1)], dtype=object)
    index = map(CharacterIndex, repeat(n), zip(*reps.T.tolist()))
    columns = (repeat(ell), repeat(n), index, order[levels].tolist(), size[levels].tolist())
    return list(map(CharacterOrbit._make, zip(*columns)))


def enumerate_orbits(ell: int, n: int, d: int) -> list[CharacterOrbit]:
    """All Galois orbits of nontrivial characters of (Z/ell^n Z)^d, sorted
    by (exact order, representative), from one construction of the least
    members over the nonzero vectors mod ell^n (_orbit_reps): a member's
    lead coordinate is ell^t and each later coordinate of valuation s is
    ell^s times a unit below ell^(n-max(s, t)), t the least valuation
    before it; the exact order is ell^(n - least valuation)."""
    return _character_orbits(ell, n, *_orbit_reps(ell, n, d))


def orbit_records(spec: VoltageSpec, n: int, *, digit_limit: int = 0) -> list[LValueRecord]:
    """All orbit records at layer n in canonical order: the pi-adic order
    of each orbit product, and its exact integer (a resultant norm).

    The orbits are enumerated once (_orbit_reps).  An orbit of exact order
    ell^k takes its value at level k (degree phi(ell^k), not phi(ell^n)),
    whose norm equals the orbit product; each level block of the
    representatives goes to TowerCalculator._ords for its orders and to
    _rows for its value rows, and each norm is checked against its order.
    A positive digit limit skips integer values whose predicted size
    (phi * log10 of the coefficient 1-norm, an upper bound) exceeds it;
    orders stay exact.
    The spec goes through TowerCalculator, so an inadmissible base or a
    disconnected tower is rejected as in the tables.
    """
    calc = TowerCalculator(spec)
    ell = spec.ell
    reps, levels = _orbit_reps(ell, n, spec.d)
    orbits = iter(_character_orbits(ell, n, reps, levels))
    out = []
    for k in range(1, n + 1):
        block = reps[levels == k] // ell ** (n - k)
        for row, order in zip(calc._rows(k, block), calc._ords(k, block)):
            value = CycInt(ell, k, row)
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


# entries of one chunk of a level's (representatives x ell^k) value rows or
# (representatives x w) folds: bounds the memory of one batched pass
# whatever the level
_CHUNK_ENTRIES = 2**17


class TowerCalculator:
    """Caches per-level orbit data for one voltage specification.

    Level k data (values of characters of exact order ell^k) is the same
    for every layer n >= k, so the tables for n = 1..n_max cost one pass
    per level, not one per layer; this is the package's only cache.  Every
    value is a specialization of the characteristic polynomial P, built on
    first use.  A level's pi-adic orders come from the fold of P's
    exponents (_ords) and are cached by level_ords; its value rows (_rows)
    are built only for norms, and level_norms checks every norm against
    level_ords, so each level is folded once.
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

    @functools.cached_property
    def poly(self) -> LaurentPoly:
        """P(x) = det(D - A_x), computed once."""
        return char_poly(self.spec)

    def base_tree_count(self) -> TreeCount:
        if self._base is None:
            self._base = kappa_matrix_tree(self.spec.base, self.spec.ell)
        return self._base

    def _ords(self, k: int, reps: np.ndarray) -> tuple[int, ...]:
        """pi-adic orders of the level-k values of the representatives reps.

        With ell^mu the content of P, character_values(width=w) gives each
        value of P / ell^mu folded mod X^w - 1 and mod ell, w =
        ell^floor(k/2), in chunks of _CHUNK_ENTRIES // w rows (or fewer,
        when P has more than w terms to place).  Where the fold is nonzero
        the order is mu * phi (ell is pi^phi times a unit) plus the fold's
        order (fold_ords).  The open rows, whose fold vanishes, take their
        full values through pi_adic_ords, in chunks of
        _CHUNK_ENTRIES // ell^k rows.
        """
        ell, poly = self.spec.ell, self.poly
        mu = min((ord_prime(abs(c), ell) for c in poly.terms.values()), default=0)
        primitive = LaurentPoly({e: c // ell**mu for e, c in poly.terms.items()})
        w = ell ** (k // 2)
        ords = np.empty(len(reps), dtype=np.int64)
        found = np.empty(len(reps), dtype=bool)
        step = max(1, _CHUNK_ENTRIES // max(w, len(poly.terms)))
        for i in range(0, len(reps), step):
            fold = character_values(primitive, ell, k, reps[i : i + step], width=w)
            ords[i : i + step], found[i : i + step] = fold_ords(fold, ell)
        ords += mu * phi_ell_power(ell, k)
        step = max(1, _CHUNK_ENTRIES // ell**k)
        rest = np.flatnonzero(~found)
        for i in range(0, len(rest), step):
            part = rest[i : i + step]
            ords[part] = pi_adic_ords(character_values(poly, ell, k, reps[part]), ell)
        return tuple(ords.tolist())

    def _rows(self, k: int, reps: np.ndarray):
        """Power-basis rows of the level-k values of the representatives
        reps, as lists, built in chunks of _CHUNK_ENTRIES // ell^k rows only
        as they are read."""
        ell = self.spec.ell
        step = max(1, _CHUNK_ENTRIES // ell**k)
        for i in range(0, len(reps), step):
            yield from character_values(self.poly, ell, k, reps[i : i + step]).tolist()

    def level_ords(self, k: int) -> tuple[int, ...]:
        """pi-adic orders of all exact-level-k orbit values, in representative order."""
        got = self._level_ords.get(k)
        if got is None:
            reps, levels = _orbit_reps(self.spec.ell, k, self.spec.d)
            got = self._level_ords[k] = self._ords(k, reps[levels == k])
        return got

    def level_norms(self, k: int) -> tuple[int, ...]:
        """Norms of the exact-level-k orbit values, each checked against
        its pi-adic order from level_ords."""
        got = self._level_norms.get(k)
        if got is None:
            reps, levels = _orbit_reps(self.spec.ell, k, self.spec.d)
            rows = self._rows(k, reps[levels == k])
            got = self._level_norms[k] = tuple(
                _checked_norm(CycInt(self.spec.ell, k, row), o) for row, o in zip(rows, self.level_ords(k))
            )
        return got

    def ord_valuation(self, n: int) -> int:
        """ord_ell(kappa_n) via the orbit-sum formula; exact, no norms."""
        total = self.base_tree_count().ord_ell
        for k in range(1, n + 1):
            total += sum(self.level_ords(k))
        return total - self.spec.d * n

    def kappa_exact(self, n: int) -> int:
        """The full tree number of layer n from the orbit-norm product."""
        spec = self.spec
        prod = self.base_tree_count().kappa
        for k in range(1, n + 1):
            for v in self.level_norms(k):
                prod *= v
        denominator = spec.ell ** (spec.d * n)
        if prod % denominator:
            raise RuntimeError("orbit product is not divisible by ell^(d n); internal inconsistency")
        return prod // denominator
