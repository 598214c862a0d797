#!/usr/bin/env python3
"""Recompute the five bundled tower tables and their growth polynomials.

Runs every fixture in fixtures/ to its recorded depth (n = 10 for the
ell = 2 towers, n = 7 for ell = 3), prints the per-layer valuations with
timings (a layer's time includes its matrix-tree cross-check when
--budget admits the layer), fits the growth polynomial on the deepest
window, and reports how far back the fit verifies.  The last line is the
wall time of the whole run.

Usage:
    python scripts/reproduce_tables.py [--n-max N] [--budget VERTICES]
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from elltowers import (  # noqa: E402
    TowerCalculator,
    ValuationSequence,
    fit_window,
    format_fit,
    load_tower_spec,
    monomial_basis,
    sequence_entry,
    verify_fit,
)
from elltowers.cli import _nonnegative, _positive  # noqa: E402

DEPTHS = {2: 10, 3: 7}


def run_fixture(path: Path, n_max_override, budget):
    with open(path, "r", encoding="utf-8") as fh:
        spec = load_tower_spec(json.load(fh))
    n_max = n_max_override or DEPTHS.get(spec.ell, 7)
    print(f"== {path.stem}  (ell={spec.ell}, d={spec.d}, |S|={len(spec.alpha)})")
    calc = TowerCalculator(spec)
    t_start = time.perf_counter()
    entries = []
    for n in range(1, n_max + 1):
        t0 = time.perf_counter()
        entries.append(sequence_entry(calc, n, budget))
        print(f"  n={n:2d}  ord={entries[-1].ord_ell:>9d}   ({time.perf_counter() - t0:6.2f}s)")
    seq = ValuationSequence(spec.ell, spec.d, tuple(entries))
    unknowns = len(monomial_basis(spec.d))
    if n_max >= unknowns:
        fit = fit_window(seq, (n_max - unknowns + 1, n_max))
        verified, _ = verify_fit(fit, seq)
        shown = f"{verified[0]} <= n <= {verified[1]}" if verified else "nowhere"
        print(f"  fit: ord = {format_fit(fit)}   (verified {shown})")
    print(f"  total {time.perf_counter() - t_start:.2f}s")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=_positive, default=None, help="override the table depth")
    parser.add_argument(
        "--budget",
        type=_nonnegative,
        default=0,
        help="vertex budget for the matrix-tree cross-check (0 disables it)",
    )
    args = parser.parse_args()
    fixtures = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))
    t_start = time.perf_counter()
    for path in fixtures:
        run_fixture(path, args.n_max, args.budget)
    print(f"grand total {time.perf_counter() - t_start:.2f}s")


if __name__ == "__main__":
    main()
