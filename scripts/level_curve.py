#!/usr/bin/env python3
"""Per-level cost curve of the orbit-sum route (ROADMAP aim 1).

For each fixture, builds one TowerCalculator with an empty level cache
(its characteristic polynomial is built first and not timed) and times
TowerCalculator.level_ords(k) for k = 1, 2, ... until one level takes
longer than --seconds.  Prints CSV on stdout, one line per timed level:

    fixture,level,orbits,sum_of_orders,seconds

orbits is the number of character orbits of exact level k and
sum_of_orders the sum of their pi-adic orders, the level's share of
ord_ell(kappa_n).  --seconds 0 stops after level 1 on every fixture.

Usage:
    python scripts/level_curve.py [--seconds S] [FIXTURE ...]
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from elltowers import TowerCalculator, load_tower_spec  # noqa: E402

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _seconds(text: str) -> float:
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be a number >= 0, got {text}")
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seconds", type=_seconds, default=2.0, help="stop after the first level slower than this (default 2)"
    )
    parser.add_argument("fixtures", nargs="*", help="fixture names (default: every file in fixtures/)")
    args = parser.parse_args()
    known = sorted(path.stem for path in FIXTURES.glob("*.json"))
    names = args.fixtures or known
    unknown = [name for name in names if name not in known]
    if unknown:
        parser.error(f"unknown fixture {', '.join(unknown)} (known: {', '.join(known)})")
    print("fixture,level,orbits,sum_of_orders,seconds")
    for name in names:
        with open(FIXTURES / f"{name}.json", "r", encoding="utf-8") as fh:
            calc = TowerCalculator(load_tower_spec(json.load(fh)))
        calc.poly  # P is built once per tower, outside the timed levels
        k, seconds = 0, 0.0
        while seconds <= args.seconds:
            k += 1
            t0 = time.perf_counter()
            ords = calc.level_ords(k)
            seconds = time.perf_counter() - t0
            print(f"{name},{k},{len(ords)},{sum(ords)},{seconds:.4f}", flush=True)


if __name__ == "__main__":
    main()
