"""Spanning-tree counts via the matrix-tree theorem, exactly.

Delete a row and the matching column of the Laplacian D - A and take the
determinant: that is the number of spanning trees, and 0 exactly when the
graph is disconnected.  Loops cancel between D and A and contribute
nothing.  The reduced Laplacian is an int64 array built from the edge
pairs.  Every one goes through the CRT-modular determinant, which reads
the array once into compressed sparse rows, orders it by reverse
Cuthill-McKee (which reads only the nonzero pattern and turns a layer's
few nonzeros per row into a narrow band) and eliminates its primes
together inside that envelope, in one pass while their strips fit in
32 MB (memory is O(nonzeros + 32 MB) beside this dense array), with
primes as wide as the band allows (2^28 to 2^29 on a layer's band).  It
is exact: a reduced Laplacian is symmetric and diagonally dominant, so
the product of its diagonal bounds the prime count.  Fraction-free
Bareiss elimination stays in ``linalg`` as the oracle it is checked
against, off this path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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


def reduced_laplacian(g: MultiGraph, drop: int = 0) -> np.ndarray:
    """The Laplacian D - A without row and column ``drop``, as an int64 array.

    Built from the edge pairs by bincounts: an edge adds 1 to the valency
    of each end and -1 to the two entries it joins, so a loop adds 2 and
    -2 to the same diagonal entry and cancels.
    """
    n = g.n_vertices
    if not 0 <= drop < n:
        raise ValueError(f"cannot drop vertex {drop} of a graph on {n} vertices")
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


def kappa_by_enumeration(g: MultiGraph) -> int:
    """Count spanning trees by brute force over edge subsets.

    The independent oracle for the determinant route; only usable on tiny
    graphs (the subset count is binomial in the edge count).
    """
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
