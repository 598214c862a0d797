"""Spanning-tree counts via the matrix-tree theorem, exactly.

Delete a row and the matching column of the Laplacian D - A and take the
determinant: that is the number of spanning trees, and 0 exactly when the
graph is disconnected.  Loops cancel between D and A and contribute
nothing.  The reduced Laplacian is an int64 array built from the edge
pairs, and every one goes through ``linalg.det_exact_modular``, whose
domain is exactly such matrices: symmetric, weakly diagonally dominant,
with a nonnegative diagonal.  The product of the diagonal bounds the
prime count; the largest front of a multifrontal elimination in
nested-dissection order of the nonzero pattern alone (no voltage, group
or character data) sizes the primes, in memory O(nonzeros + 32 MB)
beside this array; a prime that divides a leading minor is replaced by
the next.  Fraction-free Bareiss elimination stays in ``linalg`` as the
oracle it is checked against, off this path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import MultiGraph
from .linalg import bareiss_det, det_exact_modular  # noqa: F401  (bareiss_det: perfbench/tracer.py looks it up here)


class DisconnectedGraphError(ValueError):
    pass


@dataclass(frozen=True)
class TreeCount:
    kappa: int
    ell: int | None = None
    ord_ell: int | None = None
    route: str = "matrix-tree"


def ord_prime(k: int, ell: int) -> int:
    """Largest e with ell^e dividing k.  Rejects k = 0 (infinite)."""
    if k <= 0:
        raise ValueError("valuation is defined here for positive integers only")
    e = 0
    while k % ell == 0:
        k //= ell
        e += 1
    return e


# rows of the dense reduced Laplacian: 2^13 rows of int64 take 512 MiB
_MAX_LAPLACIAN_ROWS = 2**13


def reduced_laplacian(g: MultiGraph, drop: int = 0) -> np.ndarray:
    """The Laplacian D - A without row and column ``drop``, as an int64 array.

    Built from the edge pairs by bincounts: an edge adds 1 to the valency
    of each end and -1 to the two entries it joins, so a loop adds 2 and
    -2 to the same diagonal entry and cancels.  More than
    _MAX_LAPLACIAN_ROWS rows are refused before the array is built.
    """
    n = g.n_vertices
    if not 0 <= drop < n:
        raise ValueError(f"cannot drop vertex {drop} of a graph on {n} vertices")
    if n - 1 > _MAX_LAPLACIAN_ROWS:
        raise ValueError(
            f"graph of {n} vertices: its reduced Laplacian, {n - 1} x {n - 1} int64 "
            f"({8 * (n - 1) ** 2 / 2**30:.1f} GiB), is past the capacity of {_MAX_LAPLACIAN_ROWS} rows"
        )
    a, b = np.array(g.edge_pairs, dtype=np.int64).T
    val = np.bincount(np.concatenate((a, b)), minlength=n)
    m = n - 1
    pos = np.arange(n) - (np.arange(n) > drop)  # reduced index of every vertex but drop
    inner = (a != drop) & (b != drop)
    a, b = pos[a[inner]], pos[b[inner]]
    lap = np.bincount(np.concatenate((a * m + b, b * m + a)), minlength=m * m)
    lap = np.negative(lap, out=lap).astype(np.int64, copy=False).reshape(m, m)
    lap.flat[::m + 1] += np.delete(val, drop)
    return lap


def kappa_matrix_tree(g: MultiGraph, ell: int | None = None, drop: int = 0) -> TreeCount:
    """Exact spanning-tree count of a connected multigraph.

    No separate connectivity test: by the matrix-tree theorem the
    determinant is 0 exactly when the graph is disconnected.
    """
    kappa = det_exact_modular(reduced_laplacian(g, drop))
    if kappa == 0:
        raise DisconnectedGraphError("spanning-tree count requires a connected graph")
    if kappa < 0:
        raise RuntimeError(f"matrix-tree determinant came out as {kappa}")
    ord_ell = ord_prime(kappa, ell) if ell is not None else None
    return TreeCount(kappa, ell, ord_ell)

