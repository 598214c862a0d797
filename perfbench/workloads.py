"""The four benchmark workloads: their inputs, their work, and their checks.

``make_inputs`` runs in the benchmark process and turns a seed into tower
specs plus the exact references they must reproduce.  ``solve`` runs in a
fresh interpreter per repetition, does the work through the package's
public API, and checks every output against its reference inside the timed
region.  Every operation (one table row, one fit, one kappa comparison or
one orbit record) is reported with its verdict.

Why these workloads, and why their sizes:

* ``tables``     -- all five fixtures in one process, then the fits: orbit
  enumeration, the ell = 2 batch and the exact ell = 3 pi-adic orders.
  Never reaches the matrix-tree determinants.
* ``crosscheck`` -- the matrix-tree route against the orbit-norm route on
  every layer up to 729 vertices: almost all time in ``det_mod_prime``.
* ``nonbouquet`` -- seed-drawn K_{3,3} bases (6 vertices, 9 non-loop
  edges), where character values go through ``det_in_ring`` instead of
  the bouquet fast path.
* ``lvalues``    -- ``orbit_records``, the full orbit integers through
  resultant norms that ``elltowers lvalues`` prints.

On a shared 2-vCPU Xeon VM (2.0 GHz), interpreted code runs up to 40 %
faster for seconds at a time, so a single long repetition reads anywhere
in that range.  The pure-Python workloads are therefore sized to a few seconds per
repetition and reported as a median over many repetitions: ``tables``
stops one level short of the frozen depth (the deepest level alone is
eight times the rest), and ``lvalues`` takes ell = 2 to level 8.
``crosscheck`` is numpy-bound, reads steadily, and keeps its full size.
"""

from __future__ import annotations

import ast
import json
import random
from fractions import Fraction
from pathlib import Path

NAMES = ("tables", "crosscheck", "nonbouquet", "lvalues")

CROSSCHECK_DEPTHS = {
    "bouquet2_ell2": 4,
    "bouquet4_ell2_parallel": 4,
    "bouquet4_ell2_skew": 4,
    "bouquet2_ell3": 3,
}
TABLES_DEPTHS = {2: 9, 3: 6}  # by ell
LVALUES_LEVELS = {"bouquet2_ell2": 8, "bouquet2_ell3": 5}

# nonbouquet: one base's cost depends on its voltages (up to 1.3x between
# draws on one graph, 1.7x across random graphs), so the graph is fixed to
# K_{3,3} and each repetition runs several drawn bases.  The depth stops at
# 6 because the norm check of every orbit costs 1 s at level 7 and 11 s at
# level 8 per base on the VM above.
NB_BASES = 8
NB_ELL = 2
NB_D = 2
NB_VOLTAGE = 5
NB_DEPTH = 6
NB_CROSS_DEPTH = 2


def golden(root: Path):
    """TABLES and FITS as frozen in the acceptance suite, read from its
    source so the benchmark can never drift from it."""
    tree = ast.parse((root / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("TABLES", "FITS"):
                code = compile(ast.Expression(node.value), "test_acceptance.py", "eval")
                found[target.id] = eval(code, {"__builtins__": {}}, {"Fraction": Fraction})
    if set(found) != {"TABLES", "FITS"}:
        raise ValueError("tests/test_acceptance.py no longer defines TABLES and FITS")
    return found["TABLES"], found["FITS"]


def _fraction_text(c) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def orbit_count(ell: int, d: int, k: int) -> int:
    """Number of Galois orbits of characters of exact order ell^k."""
    return (ell ** (d * k) - ell ** (d * (k - 1))) // ((ell - 1) * ell ** (k - 1))


def draw_nonbouquet(rng: random.Random):
    """K_{3,3} with a drawn vertex labelling, edge order and orientation,
    and voltages in [-NB_VOLTAGE, NB_VOLTAGE]^d, redrawn until it passes
    validate_base and check_tower_connectivity."""
    from elltowers.graphs import build_graph, validate_base
    from elltowers.voltage import VoltageSpec, check_tower_connectivity, default_section

    while True:
        label = list(range(6))
        rng.shuffle(label)
        edges = [(label[i], label[j]) for i in range(3) for j in range(3, 6)]
        rng.shuffle(edges)
        edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
        g = build_graph(6, edges)
        if not validate_base(g).ok:
            continue
        alpha = tuple(
            tuple(rng.randint(-NB_VOLTAGE, NB_VOLTAGE) for _ in range(NB_D)) for _ in edges
        )
        spec = VoltageSpec(g, default_section(g), alpha, NB_ELL, NB_D)
        if check_tower_connectivity(spec).ok:
            return spec


def make_inputs(workload: str, seed: int, root: Path, out_dir: Path, max_depth: int) -> dict:
    """The towers a workload runs, with their references.  Spec files are
    written to out_dir when they are generated, so that every run can be
    replayed with ``elltowers table --spec``."""
    from elltowers.voltage import tower_spec_to_json

    tables, fits = golden(root)
    rng = random.Random(seed)
    towers = []
    if workload == "tables":
        for name, row in tables.items():
            ell = json.loads((root / "fixtures" / f"{name}.json").read_text(encoding="utf-8"))["ell"]
            depth = min(TABLES_DEPTHS[ell], len(row), max_depth)
            coeffs, (first, last) = fits[name]
            fit = None
            if depth >= 5 and first <= depth - 4 and depth <= last:
                # the frozen polynomial holds on first..last, so the window
                # ending at depth recovers it and verifies back to first
                fit = {
                    "coefficients": [[list(k), _fraction_text(v)] for k, v in coeffs.items()],
                    "verified": [first, depth],
                }
            towers.append({"name": name, "depth": depth, "golden": row[:depth], "fit": fit})
    elif workload == "crosscheck":
        for name, depth in CROSSCHECK_DEPTHS.items():
            depth = min(depth, max_depth)
            towers.append({"name": name, "depth": depth, "golden": tables[name][:depth]})
    elif workload == "lvalues":
        for name, level in LVALUES_LEVELS.items():
            level = min(level, max_depth)
            towers.append({"name": name, "level": level, "golden": tables[name][level - 1]})
    elif workload == "nonbouquet":
        for i in range(NB_BASES):
            spec = draw_nonbouquet(rng)
            path = (out_dir / f"nonbouquet_{i}.json").relative_to(root)
            (root / path).write_text(json.dumps(tower_spec_to_json(spec)) + "\n", encoding="utf-8")
            towers.append({
                "name": path.stem,
                "spec": str(path),
                "depth": min(NB_DEPTH, max_depth),
                "cross_depth": min(NB_CROSS_DEPTH, max_depth),
            })
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if workload != "nonbouquet":
        # the seed only orders the fixed towers; the work is the same
        rng.shuffle(towers)
        for t in towers:
            t["spec"] = f"fixtures/{t['name']}.json"
    for t in towers:
        t["replay"] = _replay(workload, t, root)
    return {"workload": workload, "towers": towers}


def _replay(workload: str, tower: dict, root: Path) -> str:
    """The command-line call that recomputes this tower's outputs, with the
    matrix-tree cross-check where the workload makes one."""
    if workload == "lvalues":
        return f"elltowers lvalues --spec {tower['spec']} --level {tower['level']}"
    spec = json.loads((root / tower["spec"]).read_text(encoding="utf-8"))
    cross = tower["depth"] if workload == "crosscheck" else tower.get("cross_depth", 0)
    budget = spec["graph"]["vertices"] * spec["ell"] ** (spec["d"] * cross) if cross else 0
    return f"elltowers table --spec {tower['spec']} --n-max {tower['depth']} --budget {budget}"


def expected_ops(inputs: dict, root: Path) -> int:
    """How many checked operations a correct repetition reports."""
    total = 0
    for t in inputs["towers"]:
        if inputs["workload"] == "tables":
            total += t["depth"] + (t["fit"] is not None)
        elif inputs["workload"] == "crosscheck":
            total += 2 * t["depth"]
        elif inputs["workload"] == "lvalues":
            spec = json.loads((root / t["spec"]).read_text(encoding="utf-8"))
            total += 1 + sum(orbit_count(spec["ell"], spec["d"], k) for k in range(1, t["level"] + 1))
        else:
            total += t["depth"] + 2 * t["cross_depth"]
            total += sum(orbit_count(NB_ELL, NB_D, k) for k in range(1, t["depth"] + 1))
    return total


# work and checks, run in the timed child ------------------------------------


class Checks:
    """Output rows (hashed by the benchmark) and checked operations."""

    def __init__(self):
        self.rows: list = []
        self.ops: list = []

    def op(self, label: str, ok: bool, detail: str = "") -> None:
        self.ops.append([label, bool(ok), "" if ok else detail])


def _tables(tower, calc, out: Checks):
    from elltowers import fit, lfunctions

    spec, name, depth = calc.spec, tower["name"], tower["depth"]
    for n in range(1, depth + 1):
        lfunctions.enumerate_orbits(spec.ell, n, spec.d)
    seq = fit.valuation_sequence(spec, depth, matrix_tree_budget=0, calculator=calc)
    for entry, want in zip(seq.entries, tower["golden"]):
        out.rows.append([name, entry.n, entry.ord_ell])
        out.op(f"{name} row {entry.n}", entry.ord_ell == want, f"ord {entry.ord_ell}, golden {want}")
    if tower["fit"] is not None:
        got = fit.fit_window(seq, (depth - 4, depth))
        verified, _ = fit.verify_fit(got, seq)
        want = {tuple(k): Fraction(v) for k, v in tower["fit"]["coefficients"]}
        have = got.coefficients if got is not None else None
        out.rows.append([name, "fit", sorted((list(k), _fraction_text(v)) for k, v in (have or {}).items())])
        ok = have == want and list(verified or ()) == tower["fit"]["verified"]
        out.op(f"{name} fit", ok, f"fit {have} verified {verified}")


def _compare_kappa(calc, name, n, out: Checks, golden_ord=None):
    from elltowers import treecount, voltage

    spec = calc.spec
    layer = voltage.derived_graph(spec, n)
    mt = treecount.kappa_matrix_tree(layer.graph, spec.ell)
    lf = calc.kappa_exact(n)
    out.rows.append([name, n, str(mt.kappa)])
    out.op(f"{name} kappa {n}", mt.kappa == lf, f"matrix-tree {mt.kappa} vs L-function {lf}")
    want = calc.ord_valuation(n) if golden_ord is None else golden_ord
    got = treecount.ord_prime(lf, spec.ell) if lf > 0 else None
    out.op(f"{name} row {n}", got == want, f"ord_ell(kappa) {got}, expected {want}")


def _crosscheck(tower, calc, out: Checks):
    for n, want in zip(range(1, tower["depth"] + 1), tower["golden"]):
        _compare_kappa(calc, tower["name"], n, out, golden_ord=want)


def _nonbouquet(tower, calc, out: Checks):
    from elltowers import lfunctions, treecount

    spec, name = calc.spec, tower["name"]
    for n in range(1, tower["depth"] + 1):
        lfunctions.enumerate_orbits(spec.ell, n, spec.d)
        out.rows.append([name, n, calc.ord_valuation(n)])
    # the norm route, orbit by orbit, against the pi-adic orders
    total = calc.base_tree_count().ord_ell
    for k in range(1, tower["depth"] + 1):
        norms = calc.level_norms(k)
        for i, (norm, order) in enumerate(zip(norms, calc.level_ords(k))):
            got = treecount.ord_prime(norm, spec.ell) if norm > 0 else None
            out.op(f"{name} orbit {k}.{i}", got == order, f"norm ord {got}, pi-adic ord {order}")
            total += got or 0
        row = calc.ord_valuation(k)
        out.op(f"{name} row {k}", row == total - spec.d * k, f"ord {row}, from norms {total - spec.d * k}")
    for n in range(1, tower["cross_depth"] + 1):
        _compare_kappa(calc, name, n, out)


def _lvalues(tower, calc, out: Checks):
    from elltowers import lfunctions, treecount

    spec, name, level = calc.spec, tower["name"], tower["level"]
    total = 0
    for rec in lfunctions.orbit_records(spec, level):
        rep = " ".join(map(str, rec.orbit.representative.vector))
        value = rec.integer_value
        out.rows.append([name, rep, rec.orbit.size, str(value), rec.ord_ell])
        got = treecount.ord_prime(value, spec.ell) if value is not None and value > 0 else None
        out.op(f"{name} orbit {rep}", got == rec.ord_ell, f"norm ord {got}, pi-adic ord {rec.ord_ell}")
        total += rec.ord_ell
    row = total - spec.d * level + calc.base_tree_count().ord_ell
    out.op(f"{name} row {level}", row == tower["golden"], f"ord {row}, golden {tower['golden']}")


_SOLVERS = {"tables": _tables, "crosscheck": _crosscheck, "nonbouquet": _nonbouquet, "lvalues": _lvalues}


def solve(inputs: dict, calcs) -> Checks:
    """Run the workload tower by tower.  An exception fails the tower's
    remaining operations, which the benchmark counts as missing."""
    out = Checks()
    solver = _SOLVERS[inputs["workload"]]
    for tower, calc in zip(inputs["towers"], calcs):
        try:
            solver(tower, calc, out)
        except Exception as err:  # noqa: BLE001 -- a failed operation, reported
            out.op(f"{tower['name']} raised", False, f"{type(err).__name__}: {err}")
    return out
