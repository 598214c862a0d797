"""Voltage assignments and the derived covers they generate.

A voltage specification is a base multigraph, a section (one directed edge
per inversion orbit), an integer-vector voltage per section edge, a prime
ell and a rank d.  Reducing the voltages modulo ell^n and unrolling the
derived-graph construction gives layer n of a tower of abelian covers with
group (Z/ell^n Z)^d; the whole tower is connected exactly when the cycle
voltages of the base span (Z/ell Z)^d, which is what the connectivity
check decides once and for all (generation mod ell lifts to every ell^n).
It and derived_graph's check of each built layer both read
MultiGraph.bfs_tree, the package's one graph search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graphs import GraphInputError, MultiGraph, build_graph, graph_from_json, graph_to_json
from .linalg import MR_EXACT_BELOW, is_prime

_DOT_PALETTE = (
    "lightblue",
    "lightsalmon",
    "palegreen",
    "khaki",
    "plum",
    "lightgrey",
    "orange",
    "cyan",
    "pink",
    "yellowgreen",
)


class SpecFormatError(ValueError):
    pass


class BudgetExceededError(RuntimeError):
    pass


class DisconnectedCoverError(RuntimeError):
    pass


@dataclass(frozen=True)
class Section:
    """One chosen directed edge per undirected edge of the base graph."""

    edges: tuple[int, ...]


def default_section(g: MultiGraph) -> Section:
    """Deterministic section: the smaller directed id of each orbit, i.e.
    every undirected edge in the orientation it was listed."""
    return Section(tuple(2 * j for j in range(g.n_undirected)))


@dataclass(frozen=True)
class VoltageSpec:
    base: MultiGraph
    section: Section
    alpha: tuple[tuple[int, ...], ...]
    ell: int
    d: int

    def __post_init__(self):
        if not (self.ell < MR_EXACT_BELOW and is_prime(self.ell)):
            raise SpecFormatError(f"ell = {self.ell} is not a prime below {MR_EXACT_BELOW} (the exact range)")
        if self.d < 1:
            raise SpecFormatError("d must be a positive integer")
        orbits = set()
        for e in self.section.edges:
            if not 0 <= e < self.base.n_directed:
                raise SpecFormatError(f"section edge {e} is out of range")
            orbits.add(e >> 1)
        if len(orbits) != self.base.n_undirected or len(self.section.edges) != self.base.n_undirected:
            raise SpecFormatError("section must pick exactly one directed edge per orbit")
        if len(self.alpha) != len(self.section.edges):
            raise SpecFormatError("need one voltage vector per section edge")
        for row in self.alpha:
            if len(row) != self.d:
                raise SpecFormatError(f"voltage {row} does not have {self.d} coordinates")


def reduce_voltage(spec: VoltageSpec, n: int) -> tuple[tuple[int, ...], ...]:
    """Componentwise reduction of the voltages modulo ell^n (n = 0 gives
    the all-zero map into the trivial group)."""
    if n < 0:
        raise ValueError("layer index must be nonnegative")
    m = spec.ell**n
    return tuple(tuple(a % m for a in row) for row in spec.alpha)


# connectivity ----------------------------------------------------------------


@dataclass(frozen=True)
class ConnectivityReport:
    rank: int
    reasons: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.reasons


def _rank_mod_ell(rows, ell, d):
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(d):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col] % ell:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col] % ell, -1, ell)
        for r in range(len(mat)):
            if r != rank and mat[r][col] % ell:
                f = mat[r][col] * inv % ell
                mat[r] = [(x - f * y) % ell for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def check_tower_connectivity(spec: VoltageSpec) -> ConnectivityReport:
    """Decide connectivity of every layer at once.

    The derived graph at level n is connected iff the cycle voltages of
    the base generate (Z/ell^n Z)^d; by Nakayama it is enough that their
    reductions span (Z/ell Z)^d, so a single mod-ell rank computation
    settles the whole tower.  The witness is that rank.  Potentials are
    voltage sums along the paths of the base's one search tree; section
    edge s gives the row pot(o(s)) - pot(t(s)) + alpha(s), zero for a
    tree edge in either orientation.
    """
    g = spec.base
    tree = g.bfs_tree()
    if len(tree) != g.n_vertices - 1:
        return ConnectivityReport(0, ("base graph is not connected",))
    ends = [(g.origin(s), g.terminus(s)) for s in spec.section.edges]
    step = {}  # (v, w) -> voltage of one edge from v to w; any one gives a spanning tree
    for (o, t), volt in zip(ends, spec.alpha):
        step[o, t], step[t, o] = volt, tuple(-a for a in volt)
    pot = [(0,) * spec.d] * g.n_vertices
    for v, w in tree:
        pot[w] = tuple(p + a for p, a in zip(pot[v], step[v, w]))
    rows = [tuple(p - q + a for p, q, a in zip(pot[o], pot[t], volt)) for (o, t), volt in zip(ends, spec.alpha)]
    rank = _rank_mod_ell(rows, spec.ell, spec.d)
    reason = f"cycle voltages do not generate mod {spec.ell} (rank {rank} < {spec.d})"
    return ConnectivityReport(rank, () if rank == spec.d else (reason,))


# derived graphs ---------------------------------------------------------------


@dataclass(frozen=True)
class DerivedGraph:
    graph: MultiGraph
    level: int
    vertex_labels: tuple[tuple[int, tuple[int, ...]], ...]


DEFAULT_BUDGET = 3000  # most vertices of a built layer: derived_graph's default and the CLI's --budget


def derived_graph(spec: VoltageSpec, n: int, *, vertex_budget: int = DEFAULT_BUDGET) -> DerivedGraph:
    """Layer n of the tower: vertices (v, sigma), one undirected edge
    from (o(s), sigma) to (t(s), sigma + alpha_n(s)) per section edge s
    and group element sigma.  A layer of more than vertex_budget vertices
    raises BudgetExceededError."""
    if n < 0:
        raise ValueError("layer index must be nonnegative")
    g = spec.base
    m = spec.ell**n
    size = m**spec.d
    if g.n_vertices * size > vertex_budget:
        raise BudgetExceededError(
            f"layer {n} needs {g.n_vertices * size} vertices, budget is {vertex_budget}"
        )
    alpha_n = reduce_voltage(spec, n)
    # group indices are base-m numerals, first coordinate most significant:
    # column i of ``digits`` is the element of index i
    digits = np.indices((m,) * spec.d).reshape(spec.d, size)
    elements = list(zip(*digits.tolist()))
    vertex_labels = [(v, sigma) for v in range(g.n_vertices) for sigma in elements]
    place = m ** np.arange(spec.d - 1, -1, -1)
    shifted = (digits + np.array(alpha_n)[:, :, None]) % m
    ends = np.array([(g.origin(s), g.terminus(s)) for s in spec.section.edges])
    heads = ends[:, :1] * size + np.arange(size)
    tails = ends[:, 1:] * size + place @ shifted
    pairs = zip(heads.ravel().tolist(), tails.ravel().tolist())

    graph = build_graph(g.n_vertices * size, pairs)
    if not graph.is_connected():
        raise DisconnectedCoverError(
            f"layer {n} is disconnected; the voltages do not generate the group"
        )
    return DerivedGraph(graph, n, tuple(vertex_labels))


# i/o --------------------------------------------------------------------------


def load_tower_spec(doc) -> VoltageSpec:
    """Parse {"graph": {...}, "ell": 2, "d": 2, "alpha": [[...], ...]} with
    alpha listed in section-edge order (the order the edges were given)."""
    if isinstance(doc, (str, bytes)):
        raise TypeError("pass a parsed JSON object, not raw text")
    if not isinstance(doc, dict):
        raise SpecFormatError("tower spec must be a JSON object")
    for field in ("graph", "ell", "d", "alpha"):
        if field not in doc:
            raise SpecFormatError(f"tower spec is missing the '{field}' field")
    try:
        base = graph_from_json(doc["graph"])
    except GraphInputError as err:
        raise SpecFormatError(f"bad graph: {err}") from err
    ell = doc["ell"]
    d = doc["d"]
    alpha = doc["alpha"]
    if type(ell) is not int or type(d) is not int:  # JSON booleans load as bool, an int subclass
        raise SpecFormatError("'ell' and 'd' must be integers")
    if not isinstance(alpha, list):
        raise SpecFormatError("'alpha' must be a list of integer vectors")
    rows = []
    for i, row in enumerate(alpha):
        if not (isinstance(row, list) and all(type(x) is int for x in row)):
            raise SpecFormatError(f"alpha[{i}] must be a list of integers")
        rows.append(tuple(row))
    return VoltageSpec(base, default_section(base), tuple(rows), ell, d)


def load_tower_spec_file(path) -> VoltageSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise SpecFormatError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}") from err
        except UnicodeDecodeError as err:
            raise SpecFormatError(f"{path}: not UTF-8 text: {err.reason} at byte {err.start}") from err
    return load_tower_spec(doc)


def tower_spec_to_json(spec: VoltageSpec) -> dict:
    return {
        "graph": graph_to_json(spec.base),
        "ell": spec.ell,
        "d": spec.d,
        "alpha": [list(row) for row in spec.alpha],
    }


def derived_to_dot(dg: DerivedGraph) -> str:
    """DOT export of a layer with vertices colored by the base fiber."""
    lines = [f"graph layer{dg.level} {{", "  node [style=filled];"]
    for vid, (v, sigma) in enumerate(dg.vertex_labels):
        color = _DOT_PALETTE[v % len(_DOT_PALETTE)]
        label = f"{v}|{','.join(map(str, sigma))}"
        lines.append(f'  v{vid} [label="{label}", fillcolor={color}];')
    for a, b in dg.graph.edge_pairs:
        lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
