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

so ord_ell(kappa_n) = -d n + ord_ell(kappa_X) + sum over k <= n of S_k,
S_k the sum of the level-k orbit values' pi-adic orders (exact, no norms
needed; full integers come on demand via resultants).  Each reader of a
level gets only what it needs.  ord_valuation reads one number per level,
TowerCalculator.level_sum(k), from an ell-adic class refinement over P's
T sparse terms, shared by all levels, with no dense row: since
Phi_(ell^k) = (X - 1)^phi mod ell, a level-k value folded mod X^(ell^i) - 1
and mod ell, i < k, is P's coefficients placed at a.e mod ell^i, so its
order (cyclotomic.sparse_ord) holds for every level-k orbit above the class
a mod ell^i; only the classes whose fold vanishes are lifted, and only
the classes reaching depth k take their full order.  Norms, orbit records
and per-orbit orders read (row, order) pairs from one pass over the full
value rows (TowerCalculator._values), in chunks of at most about
_CHUNK_ENTRIES entries, so memory stays flat as the level grows.  The only
caches are TowerCalculator's depth records and per-level norms.
"""

from __future__ import annotations

import functools
import math
from itertools import chain, product, repeat
from typing import NamedTuple

import numpy as np

from .cyclotomic import (  # noqa: F401  (pi_adic_ord: perfbench/tracer.py looks it up here)
    CycInt,
    norm_to_int,
    phi_ell_power,
    pi_adic_ord,
    pi_adic_ords,
    sparse_ord,
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


class LValueRecord(NamedTuple):
    orbit: CharacterOrbit
    ord_ell: int
    integer_value: int | None


# orbit enumeration ------------------------------------------------------------


# orbits _orbit_reps builds for d > 1, at least ell^n, the width of its
# residue table: past it, it raises rather than run out of memory
_MAX_ORBITS = 2**20


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
    through the same code.  For d > 1, more than _MAX_ORBITS orbits raise a
    ValueError naming the level and the count, before anything is built.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if d > 1:
        # (ell^d - 1) / (ell - 1) * ell^((d-1)(k-1)) orbits of exact level k, summed
        count = (ell**d - 1) // (ell - 1) * ((ell ** ((d - 1) * n) - 1) // (ell ** (d - 1) - 1))
        if count > _MAX_ORBITS:
            raise ValueError(f"level {n}: {count} character orbits, past the capacity of {_MAX_ORBITS}")
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
    representatives goes through one value pass (TowerCalculator._values),
    which gives each value row with its pi-adic order, and each norm is
    checked against its order.  The passes of all levels are opened first,
    so a level whose rows are too wide is refused before the first norm.
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
    passes = [calc._values(k, reps[levels == k] // ell ** (n - k)) for k in range(1, n + 1)]
    out = []
    for k, values in enumerate(passes, start=1):
        for row, order in values:
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


# open classes one depth of level_sum's refinement may lift, each into
# ell^(d-1) classes of two sparse orders (about 0.1 ms a class for P's 5
# terms at ell = 2): past it level_sum raises rather than run for minutes
_MAX_OPEN_CLASSES = 2**16


class _Depth(NamedTuple):
    """One depth i of level_sum's refinement, over the classes reaching it:
    their full level-i orders' sum, the fold orders' sum and count of those
    closed at width ell^i, and the open ones."""

    full: int
    closed: int
    n_closed: int
    open: list


# entries of one chunk of _values' (representatives x ell^k) value rows:
# bounds the memory of one batched pass whatever the level
_CHUNK_ENTRIES = 2**17
# entries ell^k of one value row before the fold by Phi: past it _values
# raises rather than build rows it cannot hold
_MAX_ROW_WIDTH = 2**20


class TowerCalculator:
    """Caches per-level orbit data for one voltage specification.

    Level k data (values of characters of exact order ell^k) is the same
    for every layer n >= k, so the tables for n = 1..n_max cost one pass
    per level, not one per layer.  Every value is a specialization of the
    characteristic polynomial P, built on first use.  Each reader gets only
    what it needs: ord_valuation sums level_sum(k), read off the depth
    records of one class refinement on P's sparse terms, each depth walked
    once for all levels (_refine); level_norms, orbit_records and
    level_ords read (row, order) pairs from one value pass (_values), and
    level_norms caches its norms.
    """

    def __init__(self, spec: VoltageSpec):
        report = validate_base(spec.base)
        if not report.ok:
            raise ValueError("base graph is not admissible: " + "; ".join(report.reasons))
        conn = check_tower_connectivity(spec)
        if not conn.ok:
            raise DisconnectedCoverError("; ".join(conn.reasons))
        self.spec = spec
        self._depths: list[_Depth] = []
        self._level_norms: dict[int, tuple[int, ...]] = {}
        self._base: TreeCount | None = None

    @functools.cached_property
    def poly(self) -> LaurentPoly:
        """P(x) = det(D - A_x), computed once."""
        return char_poly(self.spec)

    @functools.cached_property
    def _mu(self) -> int:
        """ell^mu is the content of P."""
        return min((ord_prime(abs(c), self.spec.ell) for c in self.poly.terms.values()), default=0)

    def base_tree_count(self) -> TreeCount:
        if self._base is None:
            self._base = kappa_matrix_tree(self.spec.base, self.spec.ell)
        return self._base

    def level_sum(self, k: int) -> int:
        """Sum of the pi-adic orders of the exact-level-k orbit values, from
        the depth records 1..k (_refine): a class closed at depth i < k has
        ell^((k-i)(d-1)) level-k orbits above it, each of order its fold
        order plus mu * phi(ell^k), ell^mu the content of P (ell is pi^phi
        times a unit); the classes reaching depth k add their full orders."""
        ell, d = self.spec.ell, self.spec.d
        self._refine(k)
        mu_phi = self._mu * phi_ell_power(ell, k)
        total = self._depths[k - 1].full
        for i, rec in enumerate(self._depths[: k - 1], start=1):
            total += (rec.closed + mu_phi * rec.n_closed) * ell ** ((k - i) * (d - 1))
        return total

    def _refine(self, k: int) -> None:
        """Builds the depth records up to k, each once.  Depth 1's classes
        are the level-1 orbit representatives; depth i's are the reduced
        lifts of depth i-1's open classes: a + ell^(i-1) b with b mod ell
        zero at a's first unit coordinate, one per level-i orbit above a.
        Each class takes its full level-i order and its fold at width ell^i
        of P / ell^mu (sparse_ord on P's terms at a.e)."""
        ell, d = self.spec.ell, self.spec.d
        exps, coeffs = list(self.poly.terms), list(self.poly.terms.values())
        primitive = [c // ell**self._mu for c in coeffs]
        while len(self._depths) < k:
            i = len(self._depths) + 1
            if i == 1:
                classes = _orbit_reps(ell, 1, d)[0].tolist()
            else:
                opened = self._depths[-1].open
                if len(opened) > _MAX_OPEN_CLASSES:
                    raise ValueError(
                        f"level {k}: {len(opened)} open classes at depth {i - 1}, "
                        f"past the capacity of {_MAX_OPEN_CLASSES}"
                    )
                classes = []
                for a in opened:
                    pivot = next(t for t, x in enumerate(a) if x % ell)
                    for b in product(range(ell), repeat=d - 1):
                        b = b[:pivot] + (0,) + b[pivot:]
                        classes.append([x + ell ** (i - 1) * y for x, y in zip(a, b)])
            full = closed = n_closed = 0
            opened = []
            for a in classes:
                at = [sum(x * y for x, y in zip(a, e)) for e in exps]
                full += sparse_ord(zip(at, coeffs), ell, i)
                order = sparse_ord(zip(at, primitive), ell, i, fold=True)
                if order is None:
                    opened.append(a)
                else:
                    closed, n_closed = closed + order, n_closed + 1
            self._depths.append(_Depth(full, closed, n_closed, opened))

    def _values(self, k: int, reps: np.ndarray):
        """(row, order) per representative in reps: the power-basis row of its
        level-k value as a list and the row's pi-adic order, built a chunk at
        a time as they are read.  Rows past _MAX_ROW_WIDTH are refused at the
        call, before any is built."""
        ell = self.spec.ell
        if ell**k > _MAX_ROW_WIDTH:
            raise ValueError(f"level {k}: value rows of {ell**k} entries, "
                             f"past the capacity of {_MAX_ROW_WIDTH}")
        step = max(1, _CHUNK_ENTRIES // ell**k)
        chunks = (character_values(self.poly, ell, k, reps[i : i + step]) for i in range(0, len(reps), step))
        return chain.from_iterable(zip(rows.tolist(), pi_adic_ords(rows, ell).tolist()) for rows in chunks)

    def level_ords(self, k: int) -> tuple[int, ...]:
        """pi-adic orders of all exact-level-k orbit values, in representative
        order, from their full value rows; not cached (ord_valuation reads
        level_sum)."""
        reps, levels = _orbit_reps(self.spec.ell, k, self.spec.d)
        return tuple(order for _, order in self._values(k, reps[levels == k]))

    def level_norms(self, k: int) -> tuple[int, ...]:
        """Norms of the exact-level-k orbit values, each checked against the
        pi-adic order of its value row."""
        if k not in self._level_norms:
            reps, levels = _orbit_reps(self.spec.ell, k, self.spec.d)
            values = self._values(k, reps[levels == k])
            self._level_norms[k] = tuple(_checked_norm(CycInt(self.spec.ell, k, row), o) for row, o in values)
        return self._level_norms[k]

    def ord_valuation(self, n: int) -> int:
        """ord_ell(kappa_n) via the orbit-sum formula; exact, no norms."""
        sums = sum(self.level_sum(k) for k in range(1, n + 1))
        return self.base_tree_count().ord_ell + sums - self.spec.d * n

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
