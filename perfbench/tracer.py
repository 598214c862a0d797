"""Per-layer timings taken from outside the package.

Each target is a public name looked up at the module attribute its caller
uses (``elltowers.lfunctions.pi_adic_ord`` is the name ``level_ords``
calls, not ``elltowers.cyclotomic.pi_adic_ord``).  The wrapper times every
call, counts it, and charges its duration to the enclosing wrapped call so
that self time can be read off.  Names that cannot be found, and names
that were wrapped but never called, are reported instead of silently
reading zero, so a rename inside the package shows up here.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict

# (layer metric prefix, module, dotted attribute in that module)
TARGETS = (
    ("lfunctions.enumerate_orbits", "elltowers.lfunctions", "enumerate_orbits"),
    ("lfunctions.level_ords", "elltowers.lfunctions", "TowerCalculator.level_ords"),
    ("lfunctions.level_norms", "elltowers.lfunctions", "TowerCalculator.level_norms"),
    ("lfunctions.kappa_exact", "elltowers.lfunctions", "TowerCalculator.kappa_exact"),
    ("lfunctions.orbit_records", "elltowers.lfunctions", "orbit_records"),
    ("cyclotomic.pi_adic_ord", "elltowers.lfunctions", "pi_adic_ord"),
    ("cyclotomic.norm_to_int", "elltowers.lfunctions", "norm_to_int"),
    ("linalg.det_in_ring", "elltowers.lfunctions", "det_in_ring"),
    ("linalg.det_exact_modular", "elltowers.treecount", "det_exact_modular"),
    ("linalg.det_mod_prime", "elltowers.linalg", "det_mod_prime"),
    ("linalg.bareiss_det", "elltowers.treecount", "bareiss_det"),
    ("treecount.kappa_matrix_tree", "elltowers.treecount", "kappa_matrix_tree"),
    ("treecount.reduced_laplacian", "elltowers.treecount", "reduced_laplacian"),
    ("voltage.derived_graph", "elltowers.voltage", "derived_graph"),
    ("fit.fit_window", "elltowers.fit", "fit_window"),
    ("fit.verify_fit", "elltowers.fit", "verify_fit"),
    ("graphs.validate_base", "elltowers.lfunctions", "validate_base"),
    ("voltage.check_tower_connectivity", "elltowers.lfunctions", "check_tower_connectivity"),
)


def hadamard_bits(rows) -> float:
    """log2 of the Hadamard bound of an integer matrix (the bound the
    CRT determinant sizes its prime count by)."""
    return sum(0.5 * math.log2(max(1, sum(x * x for x in r))) for r in rows)


class Tracer:
    """Timings, call counts and work counters of one traced repetition."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[list[float]] = []

    def install(self) -> None:
        for prefix, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(prefix, fn))

    def _wrap(self, prefix, fn):
        observe = getattr(self, "_observe_" + prefix.rsplit(".", 1)[1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.total[prefix] += dt
                self.self_time[prefix] += dt - frame[0]
                self.calls[prefix] += 1
                if self._stack:
                    self._stack[-1][0] += dt
            if observe is not None:
                observe(args, result, dt)
            return result

        return wrapper

    # work counters, taken from the arguments and results of a call

    def _observe_enumerate_orbits(self, args, result, dt):
        self.counts["lfunctions.orbits"] += len(result)

    def _observe_level_ords(self, args, result, dt):
        self.counts[f"lfunctions.level_ords.k{args[1]}_s"] += dt

    def _observe_norm_to_int(self, args, result, dt):
        bits = abs(result).bit_length()
        self.counts["cyclotomic.norm_bits_max"] = max(self.counts["cyclotomic.norm_bits_max"], bits)

    def _observe_det_exact_modular(self, args, result, dt):
        self.counts["linalg.hadamard_bits"] += hadamard_bits(args[0])
        self.counts["linalg.kappa_bits"] += abs(result).bit_length()

    def _observe_derived_graph(self, args, result, dt):
        self.counts["voltage.layer_vertices"] += result.graph.n_vertices

    def metrics(self) -> dict[str, float]:
        """Every per-layer value this tracer can give, by metric name."""
        out = {f"{prefix}_s": self.total[prefix] for prefix, _, _ in TARGETS}
        out.update({f"{prefix}.calls": self.calls[prefix] for prefix, _, _ in TARGETS})
        out["lfunctions.level_ords.self_s"] = self.self_time["lfunctions.level_ords"]
        out["fit.fit_s"] = self.total["fit.fit_window"] + self.total["fit.verify_fit"]
        out["linalg.primes_used"] = self.calls["linalg.det_mod_prime"]
        for k in range(1, 11):
            out[f"lfunctions.level_ords.k{k}_s"] = 0.0
        for name in ("lfunctions.orbits", "cyclotomic.norm_bits_max", "linalg.hadamard_bits",
                     "linalg.kappa_bits", "voltage.layer_vertices"):
            out[name] = 0
        out.update(self.counts)
        return out

    def uncalled(self) -> list[str]:
        return [f"{module}.{attr}" for prefix, module, attr in TARGETS
                if self.calls[prefix] == 0 and f"{module}.{attr}" not in self.missing]
