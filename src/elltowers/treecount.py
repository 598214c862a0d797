"""Spanning-tree counts via the matrix-tree theorem, exactly.

Delete a row and the matching column of the Laplacian D - A and take the
determinant: that is the number of spanning trees.  Loops cancel between
D and A and contribute nothing.  Small matrices go through fraction-free
Bareiss elimination.  Large ones are ordered by reverse Cuthill-McKee,
which reads only the nonzero pattern and turns a layer's few nonzeros per
row into a narrow band, and then go through the CRT-modular determinant,
which eliminates a batch of primes at once inside that envelope: equally
exact (a reduced Laplacian is symmetric and diagonally dominant, so the
product of its diagonal bounds the prime count) and vastly faster at a
thousand vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import MultiGraph
from .linalg import bareiss_det, det_exact_modular

BAREISS_LIMIT = 64


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


def reduced_laplacian(g: MultiGraph, drop: int = 0) -> list[list[int]]:
    n = g.n_vertices
    lap = [[0] * n for _ in range(n)]
    val = g.valencies()
    for i in range(n):
        lap[i][i] = val[i]
    for e in range(0, g.n_directed, 2):
        a, b = g.origin(e), g.terminus(e)
        lap[a][b] -= 1
        lap[b][a] -= 1
    keep = [i for i in range(n) if i != drop]
    return [[lap[i][j] for j in keep] for i in keep]


def kappa_matrix_tree(g: MultiGraph, ell: int | None = None, drop: int = 0) -> TreeCount:
    """Exact spanning-tree count of a connected multigraph."""
    if not g.is_connected():
        raise DisconnectedGraphError("spanning-tree count requires a connected graph")
    lap = reduced_laplacian(g, drop)
    if len(lap) <= BAREISS_LIMIT:
        kappa = bareiss_det(lap)
    else:
        kappa = det_exact_modular(lap)
    if kappa < 1:
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
