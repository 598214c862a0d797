"""Layer-by-layer valuation tables and polynomial growth fits.

The valuation of the tree number at layer n is expected to match a
polynomial P(ell^n, n) of total degree at most d and degree at most one in
the second variable, eventually.  This module assembles the table (by the
L-function route, with the matrix-tree determinant as a cross-check while
the layers are small enough to build), solves the square linear system on
a window of consecutive layers with exact rational arithmetic, and reports
how far back the fitted polynomial reproduces the data.  Fits are
candidates with an explicit verified range, nothing stronger.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lfunctions import TowerCalculator, orbit_records
from .linalg import solve_linear_fractions
from .treecount import kappa_matrix_tree
from .voltage import DEFAULT_BUDGET, VoltageSpec, derived_graph


class RouteMismatchError(RuntimeError):
    def __init__(self, message, records=None):
        super().__init__(message)
        self.records = records or []


@dataclass(frozen=True)
class SequenceEntry:
    n: int
    ord_ell: int
    route: str  # "matrix-tree" | "l-function" | "both-agree"


@dataclass(frozen=True)
class ValuationSequence:
    ell: int
    d: int
    entries: tuple[SequenceEntry, ...]

    def ord_at(self, n: int) -> int:
        for e in self.entries:
            if e.n == n:
                return e.ord_ell
        raise KeyError(n)


def sequence_entry(calc: TowerCalculator, n: int, matrix_tree_budget: int) -> SequenceEntry:
    """One layer of the table: the L-function valuation, plus a full
    integer comparison against the matrix-tree determinant whenever the
    layer fits inside the vertex budget."""
    spec = calc.spec
    layer_vertices = spec.base.n_vertices * spec.ell ** (spec.d * n)
    if layer_vertices > matrix_tree_budget:
        return SequenceEntry(n, calc.ord_valuation(n), "l-function")
    lf = calc.kappa_exact(n)
    order = calc.ord_valuation(n)
    layer = derived_graph(spec, n, vertex_budget=matrix_tree_budget)
    mt = kappa_matrix_tree(layer.graph, spec.ell)
    if mt.kappa != lf or mt.ord_ell != order:
        raise RouteMismatchError(
            f"layer {n}: matrix-tree kappa has ord {mt.ord_ell}, "
            f"L-function route gives {order}",
            records=orbit_records(spec, n),
        )
    return SequenceEntry(n, order, "both-agree")


def valuation_sequence(
    spec: VoltageSpec,
    n_max: int,
    *,
    matrix_tree_budget: int = DEFAULT_BUDGET,
    calculator: TowerCalculator | None = None,
) -> ValuationSequence:
    """ord_ell(kappa_n) for n = 1..n_max.

    The L-function route is always taken.  While the layer fits inside the
    vertex budget the layer is also built explicitly and its matrix-tree
    count compared -- the full integers, not just their valuations; any
    disagreement is a hard error carrying the per-orbit records.
    """
    calc = calculator if calculator is not None else TowerCalculator(spec)
    entries = tuple(sequence_entry(calc, n, matrix_tree_budget) for n in range(1, n_max + 1))
    return ValuationSequence(spec.ell, spec.d, entries)


# polynomial fits ---------------------------------------------------------------


def monomial_basis(d: int) -> list[tuple[int, int]]:
    """Exponent pairs (k, j) for X^k Y^j with k + j <= d and j <= 1,
    ordered by descending total degree: for d = 2 this is X^2, XY, X, Y, 1
    (the classical five unknowns)."""
    out = []
    for total in range(d, -1, -1):
        for j in (0, 1):
            k = total - j
            if k >= 0:
                out.append((k, j))
    return out


@dataclass(frozen=True)
class GreenbergFit:
    ell: int
    d: int
    coefficients: dict  # (k, j) -> Fraction
    window: tuple[int, int]

    def evaluate(self, n: int) -> Fraction:
        x = self.ell**n
        total = Fraction(0)
        for (k, j), c in self.coefficients.items():
            total += c * x**k * n**j
        return total


def fit_window(seq: ValuationSequence, window: tuple[int, int]) -> GreenbergFit | None:
    """Solve for the candidate coefficients on a window of consecutive
    layers.  The window length must equal the number of unknowns (2d + 1);
    returns None when the system is singular."""
    basis = monomial_basis(seq.d)
    n_start, n_end = window
    size = n_end - n_start + 1
    if size != len(basis):
        raise ValueError(f"window must contain exactly {len(basis)} consecutive layers")
    rows = []
    rhs = []
    for n in range(n_start, n_end + 1):
        x = seq.ell**n
        rows.append([x**k * n**j for (k, j) in basis])
        rhs.append(seq.ord_at(n))
    sol = solve_linear_fractions(rows, rhs)
    if sol is None:
        return None
    return GreenbergFit(seq.ell, seq.d, dict(zip(basis, sol)), window)


def verify_fit(fit: GreenbergFit, seq: ValuationSequence):
    """Evaluate the fitted polynomial on every layer of the sequence.

    Returns (verified_range, residuals): the residual list pairs each n
    with ord - P(ell^n, n), and verified_range is the maximal suffix of
    layers on which every residual vanishes (None if even the last layer
    misses).
    """
    residuals = []
    for entry in seq.entries:
        residuals.append((entry.n, Fraction(entry.ord_ell) - fit.evaluate(entry.n)))
    start = None
    for n, r in reversed(residuals):
        if r != 0:
            break
        start = n
    if start is None:
        return None, residuals
    return (start, residuals[-1][0]), residuals


def leading_coefficients_integral(fit: GreenbergFit) -> bool:
    """Whether the X^d and Y X^(d-1) coefficients are nonnegative integers,
    as the leading terms of a true growth polynomial must be.  A stable fit
    violating this deserves suspicion (window or precision trouble)."""
    for key in ((fit.d, 0), (fit.d - 1, 1)):
        c = fit.coefficients.get(key, Fraction(0))
        if c.denominator != 1 or c < 0:
            return False
    return True


def format_fit(fit: GreenbergFit) -> str:
    """Human-readable candidate polynomial in n, e.g.
    '2*n*2^n + 4*2^n - 6*n - 1'."""
    parts = []
    for (k, j), c in sorted(fit.coefficients.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0])):
        if c == 0:
            continue
        mag = abs(c)
        body = []
        if k == 1:
            body.append(f"{fit.ell}^n")
        elif k > 1:
            body.append(f"{fit.ell}^({k}n)")
        if j == 1:
            body.insert(0, "n")
        if not body:
            term = f"{mag}"
        elif mag == 1:
            term = "*".join(body)
        else:
            term = f"{mag}*" + "*".join(body)
        parts.append(("- " if c < 0 else "+ ") + term)
    if not parts:
        return "0"
    first = parts[0]
    rendered = first[2:] if first.startswith("+ ") else "-" + first[2:]
    return " ".join([rendered] + parts[1:])
