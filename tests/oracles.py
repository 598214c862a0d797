"""Reference implementations the tests check production code against.

Each oracle computes its quantity by a different route from the package:

* twisted_adjacency and l_value_at_one build the twisted matrix of one
  character and take its determinant over Z[zeta] (det_in_ring), where
  production reads every value off the characteristic polynomial P
  (series.character_values);
* norm_by_conjugates multiplies out all conjugates, where production takes
  a resultant (cyclotomic.norm_to_int);
* kappa_by_enumeration counts spanning trees over edge subsets, where
  production takes a CRT-modular determinant (treecount.kappa_matrix_tree);
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
    return [[CycInt.from_exponents(spec.ell, n, entry) for entry in row] for row in rows]


def l_value_at_one(spec: VoltageSpec, n: int, chi: CharacterIndex) -> CycInt:
    """det(D - A_psi): the special value of the twisted determinant
    polynomial at u = 1.  Zero exactly at the trivial character (for a
    connected tower)."""
    rows = _twisted_counts(spec, n, chi, -1)
    for i, v in enumerate(spec.base.valencies()):
        rows[i][i][0] += v
    return det_in_ring([[CycInt.from_exponents(spec.ell, n, entry) for entry in row] for row in rows])


# norms -----------------------------------------------------------------------------


def norm_by_conjugates(x: CycInt) -> int:
    """The in-ring product of all conjugates of x.

    Quadratic in phi per multiplication, so only sensible at small levels.
    """
    if x.level == 0:
        return x.coeffs[0]
    m = x.ell**x.level
    prod = CycInt.one(x.ell, x.level)
    for u in range(1, m):
        if u % x.ell:
            prod = prod * x.conjugate(u)
    return prod.constant_value()


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
