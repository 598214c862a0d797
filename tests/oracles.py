"""Reference implementations the tests check production code against.

Each oracle computes its quantity by a different route from the package:

* Cyclotomic is the ring Z[zeta] on the package's CycInt record: sums,
  products, negation, conjugation and the constructors, which the package
  never needs (it builds values as numpy rows and only valuates them and
  takes their norms);
* twisted_adjacency and l_value_at_one build the twisted matrix of one
  character and take its determinant over Z[zeta] (det_in_ring), where
  production reads every value off the characteristic polynomial P
  (series.character_values);
* norm_by_conjugates multiplies out all conjugates, where production takes
  a resultant (cyclotomic.norm_to_int);
* kappa_by_enumeration counts spanning trees over edge subsets, where
  production takes a CRT-modular determinant (treecount.kappa_matrix_tree);
* orbit_members lists a character orbit by brute force over the units,
  where production constructs each orbit's least member
  (lfunctions._orbit_reps);
* matrices and ihara_h give the adjacency and valency matrices and the
  Ihara polynomial h(u) = det(I - A u + (D - I) u^2), expanded by
  fraction-free determinants and exact interpolation.

No module of the package imports them, and they import from the package
only data types and the routines they are built on, never a routine they
check (tests/test_oracle_boundary.py enforces both).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from elltowers.cyclotomic import CycInt
from elltowers.graphs import MultiGraph
from elltowers.lfunctions import CharacterIndex
from elltowers.linalg import bareiss_det, det_in_ring, solve_linear_fractions
from elltowers.voltage import VoltageSpec, reduce_voltage

# the ring Z[zeta] on the package's record ----------------------------------------


def _reduce_exponent_vector(ell, level, work):
    """Reduce a coefficient vector indexed by exponents in [0, ell^level)
    to the power basis 1, zeta, ..., zeta^(phi-1).

    Uses x^e = -(x^(e-phi) + x^(e-phi+s) + ... ) with s = ell^(level-1);
    every target index lands below phi, so a single top-down pass suffices.
    """
    if level == 0:
        return [sum(work)]
    step = ell ** (level - 1)
    phi = (ell - 1) * step
    m = ell * step
    for e in range(m - 1, phi - 1, -1):
        c = work[e]
        if c:
            work[e] = 0
            base = e - phi
            for j in range(ell - 1):
                work[base + j * step] -= c
    del work[phi:]
    return work


class Cyclotomic(CycInt):
    """A cyclotomic integer with the ring operations: +, -, * (with each
    other, with plain CycInt records and with ints), conjugation, and
    equality that reads an int as the constant element."""

    __slots__ = ()

    # constructors ---------------------------------------------------------

    @classmethod
    def from_exponents(cls, ell, level, long_coeffs):
        """Build from a coefficient list indexed by arbitrary exponents."""
        m = ell**level
        work = [0] * m
        for e, c in enumerate(long_coeffs):
            if c:
                work[e % m] += c
        return cls(ell, level, _reduce_exponent_vector(ell, level, work))

    @classmethod
    def integer(cls, ell, level, c):
        return cls.from_exponents(ell, level, [int(c)])

    @classmethod
    def zero(cls, ell, level):
        return cls.integer(ell, level, 0)

    @classmethod
    def one(cls, ell, level):
        return cls.integer(ell, level, 1)

    # ring operations ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return Cyclotomic.integer(self.ell, self.level, other)
        if isinstance(other, CycInt):
            if (other.ell, other.level) != (self.ell, self.level):
                raise ValueError("mixed cyclotomic levels")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.ell, self.level, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.ell, self.level, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return -(self - other)

    def __neg__(self):
        return Cyclotomic(self.ell, self.level, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        m = self.ell**self.level
        work = [0] * m
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        work[(i + j) % m] += ai * bj
        return Cyclotomic(self.ell, self.level, _reduce_exponent_vector(self.ell, self.level, work))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = Cyclotomic.integer(self.ell, self.level, other)
        return super().__eq__(other)

    # defining __eq__ drops the inherited hash; the tests hash elements
    __hash__ = CycInt.__hash__

    def __bool__(self):
        return any(self.coeffs)

    # structure ------------------------------------------------------------

    def conjugate(self, u: int):
        """Apply the field automorphism zeta -> zeta^u, u coprime to ell."""
        if u % self.ell == 0:
            raise ValueError("conjugation exponent must be a unit")
        m = self.ell**self.level
        work = [0] * m
        for e, c in enumerate(self.coeffs):
            if c:
                work[(e * u) % m] += c
        return Cyclotomic(self.ell, self.level, _reduce_exponent_vector(self.ell, self.level, work))

    def is_rational_integer(self) -> bool:
        return not any(self.coeffs[1:])

    def constant_value(self) -> int:
        if not self.is_rational_integer():
            raise ValueError("element is not a rational integer")
        return self.coeffs[0]


# twisted determinants: one per character -----------------------------------------


def _twisted_counts(spec: VoltageSpec, n: int, chi: CharacterIndex, sign: int):
    """sign times the twisted adjacency matrix, each entry (i, j) as its
    coefficient list over the exponents 0..ell^n - 1 of zeta."""
    if chi.level != n:
        raise ValueError("character level does not match the requested layer")
    if len(chi.vector) != spec.d:
        raise ValueError("character index has the wrong number of coordinates")
    g = spec.base
    m = spec.ell**n
    alpha_n = reduce_voltage(spec, n)
    rows = [[[0] * m for _ in range(g.n_vertices)] for _ in range(g.n_vertices)]
    for idx, s in enumerate(spec.section.edges):
        i, j = g.origin(s), g.terminus(s)
        c = sum(a * b for a, b in zip(chi.vector, alpha_n[idx])) % m
        rows[i][j][c] += sign
        rows[j][i][-c % m] += sign
    return rows


def twisted_adjacency(spec: VoltageSpec, n: int, chi: CharacterIndex):
    """The adjacency matrix twisted by the character indexed by chi:
    entry (i, j) sums zeta^(a.alpha(s)) over section edges from v_i to
    v_j plus zeta^(-a.alpha(s)) over those from v_j to v_i."""
    rows = _twisted_counts(spec, n, chi, 1)
    return [[Cyclotomic.from_exponents(spec.ell, n, entry) for entry in row] for row in rows]


def l_value_at_one(spec: VoltageSpec, n: int, chi: CharacterIndex) -> Cyclotomic:
    """det(D - A_psi): the special value of the twisted determinant
    polynomial at u = 1.  Zero exactly at the trivial character (for a
    connected tower)."""
    rows = _twisted_counts(spec, n, chi, -1)
    for i, v in enumerate(spec.base.valencies()):
        rows[i][i][0] += v
    return det_in_ring([[Cyclotomic.from_exponents(spec.ell, n, entry) for entry in row] for row in rows])


# norms -----------------------------------------------------------------------------


def norm_by_conjugates(x: Cyclotomic) -> int:
    """The in-ring product of all conjugates of x.

    Quadratic in phi per multiplication, so only sensible at small levels.
    """
    if x.level == 0:
        return x.coeffs[0]
    m = x.ell**x.level
    prod = Cyclotomic.one(x.ell, x.level)
    for u in range(1, m):
        if u % x.ell:
            prod = prod * x.conjugate(u)
    return prod.constant_value()


# character orbits --------------------------------------------------------------------


def orbit_members(orbit) -> list[CharacterIndex]:
    """The characters of a CharacterOrbit, sorted, by brute force over the
    units."""
    m = orbit.ell**orbit.level
    rep = orbit.representative.vector
    out = {tuple(u * x % m for x in rep) for u in range(1, orbit.exact_order) if u % orbit.ell}
    return [CharacterIndex(orbit.level, v) for v in sorted(out)]


# spanning trees ----------------------------------------------------------------------


def kappa_by_enumeration(g: MultiGraph) -> int:
    """Count spanning trees by brute force over edge subsets; only usable
    on tiny graphs (the subset count is binomial in the edge count)."""
    if g.n_undirected > 20:
        raise ValueError("enumeration oracle is limited to 20 undirected edges")
    n = g.n_vertices
    need = n - 1
    count = 0
    for combo in combinations(range(g.n_undirected), need):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for j in combo:
            a, b = g.edge_pairs[j]
            ra, rb = find(a), find(b)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if acyclic:
            count += 1
    return count


# graph matrices and the Ihara polynomial ---------------------------------------------


@dataclass(frozen=True)
class GraphMatrices:
    adjacency: tuple[tuple[int, ...], ...]
    degree: tuple[tuple[int, ...], ...]
    euler_char: int


def matrices(g: MultiGraph) -> GraphMatrices:
    """Adjacency and valency matrices.  A loop contributes 2 to its
    diagonal adjacency entry (one per orientation), matching the valency
    convention, so row sums of A equal the diagonal of D."""
    n = g.n_vertices
    a = [[0] * n for _ in range(n)]
    for e in range(g.n_directed):
        a[g.origin(e)][g.terminus(e)] += 1
    val = g.valencies()
    d = [[val[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return GraphMatrices(
        tuple(tuple(r) for r in a),
        tuple(tuple(r) for r in d),
        g.euler_char,
    )


@dataclass(frozen=True)
class IharaPolynomial:
    """Integer polynomial det(I - A u + (D - I) u^2), stored low degree first."""

    coeffs: tuple[int, ...]

    def __call__(self, u: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc

    def derivative_at(self, u: int) -> int:
        acc = 0
        for i in range(len(self.coeffs) - 1, 0, -1):
            acc = acc * u + i * self.coeffs[i]
        return acc


def ihara_h(g: MultiGraph) -> IharaPolynomial:
    """The three-term determinant polynomial of the graph.

    Computed by evaluating det(I - A t + (D - I) t^2) at 2|V| + 1 integer
    points with fraction-free determinants and interpolating; the
    interpolation is exact and the coefficients are checked to be integers.
    """
    mats = matrices(g)
    n = g.n_vertices
    deg = 2 * n
    points = list(range(deg + 1))
    values = []
    for t in points:
        m = [
            [
                (1 if i == j else 0)
                - mats.adjacency[i][j] * t
                + ((mats.degree[i][j] - (1 if i == j else 0)) * t * t)
                for j in range(n)
            ]
            for i in range(n)
        ]
        values.append(bareiss_det(m))
    vander = [[t**k for k in range(deg + 1)] for t in points]
    sol = solve_linear_fractions(vander, values)
    coeffs = []
    for c in sol:
        if c.denominator != 1:
            raise RuntimeError("interpolated polynomial is not integral")
        coeffs.append(int(c))
    return IharaPolynomial(tuple(coeffs))
