"""Finite multigraphs in the paired-directed-edge formalism.

A multigraph is a vertex count plus an ordered tuple of undirected edges
given as vertex pairs; loops and parallel edges are allowed.  Undirected
edge j materializes as two directed edges 2j (the pair as listed) and
2j + 1 (its reverse), so inversion is e ^ 1: automatically a
fixed-point-free involution satisfying o(e) = t(inv(e)).

This layout keeps vertex and edge ids dense and stable, which the cover
constructions rely on for deterministic output.

MultiGraph.bfs_tree is the one graph search: validate_base, every layer
that voltage.derived_graph builds and the tower check in voltage.py read
connectivity from it, and the tower check its spanning tree too.
"""

from __future__ import annotations

from dataclasses import dataclass


class GraphInputError(ValueError):
    pass


@dataclass(frozen=True)
class MultiGraph:
    n_vertices: int
    edge_pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_vertices < 1:
            raise GraphInputError("graph needs at least one vertex")
        if not self.edge_pairs:
            raise GraphInputError("graph needs at least one edge")
        for a, b in self.edge_pairs:
            if not (0 <= a < self.n_vertices and 0 <= b < self.n_vertices):
                raise GraphInputError(f"edge ({a},{b}) has an out-of-range vertex index")

    # directed edge structure ------------------------------------------------

    @property
    def n_undirected(self) -> int:
        return len(self.edge_pairs)

    @property
    def n_directed(self) -> int:
        return 2 * len(self.edge_pairs)

    def origin(self, e: int) -> int:
        return self.edge_pairs[e >> 1][e & 1]

    def terminus(self, e: int) -> int:
        return self.edge_pairs[e >> 1][1 - (e & 1)]

    @property
    def euler_char(self) -> int:
        return self.n_vertices - self.n_undirected

    def valencies(self) -> list[int]:
        val = [0] * self.n_vertices
        for a, b in self.edge_pairs:
            val[a] += 1
            val[b] += 1
        return val

    def bfs_tree(self) -> list[tuple[int, int]]:
        """Breadth-first search from vertex 0: for each newly reached
        vertex w, in search order, the directed edge (v, w) that reached
        it, named by its ends (of parallel edges, the first listed)."""
        adj = [[] for _ in range(self.n_vertices)]
        for a, b in self.edge_pairs:
            adj[a].append(b)
            adj[b].append(a)
        seen = [False] * self.n_vertices
        seen[0] = True
        tree = [(0, 0)]  # the root, as reached from itself; the queue is the list's second column
        for _, v in tree:  # the list grows while it is read
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    tree.append((v, w))
        return tree[1:]

    def is_connected(self) -> bool:
        return len(self.bfs_tree()) == self.n_vertices - 1


def build_graph(vertex_count: int, undirected_edge_list) -> MultiGraph:
    """Materialize a multigraph from a list of vertex pairs.

    Loops [i, i] and repeated pairs are allowed; the pair order is kept, so
    edge ids are reproducible across runs.
    """
    pairs = tuple((int(a), int(b)) for a, b in undirected_edge_list)
    return MultiGraph(int(vertex_count), pairs)


@dataclass(frozen=True)
class ValidationReport:
    connected: bool
    min_valency: int
    euler_characteristic: int
    reasons: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.reasons


def validate_base(g: MultiGraph) -> ValidationReport:
    """Check the three standing hypotheses for tower computations:
    connected, minimum valency at least two, nonzero Euler characteristic."""
    connected = g.is_connected()
    min_val = min(g.valencies())
    chi = g.euler_char
    reasons = []
    if not connected:
        reasons.append("graph is not connected")
    if min_val < 2:
        reasons.append(f"graph has a vertex of valency {min_val} < 2")
    if chi == 0:
        reasons.append("Euler characteristic is zero")
    return ValidationReport(connected, min_val, chi, tuple(reasons))


# i/o ------------------------------------------------------------------------


def graph_from_json(doc) -> MultiGraph:
    if not isinstance(doc, dict):
        raise GraphInputError("graph document must be a JSON object")
    try:
        vertices = doc["vertices"]
        edges = doc["edges"]
    except KeyError as missing:
        raise GraphInputError(f"graph document is missing the {missing} field")
    # type(x) is int, not isinstance: JSON booleans load as bool, an int subclass
    if type(vertices) is not int:
        raise GraphInputError("'vertices' must be an integer")
    if not isinstance(edges, list):
        raise GraphInputError("'edges' must be a list of vertex pairs")
    pairs = []
    for idx, item in enumerate(edges):
        if not (isinstance(item, list) and len(item) == 2 and all(type(x) is int for x in item)):
            raise GraphInputError(f"edge #{idx} must be a pair of integers, got {item!r}")
        pairs.append((item[0], item[1]))
    return build_graph(vertices, pairs)


def graph_to_json(g: MultiGraph) -> dict:
    return {"vertices": g.n_vertices, "edges": [[a, b] for a, b in g.edge_pairs]}
