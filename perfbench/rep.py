"""One timed repetition of a workload, in a fresh interpreter.

Usage: python3 perfbench/rep.py INPUTS.json OUT.json {run,setup,trace}

A fresh interpreter per repetition starts the package's module-level
caches cold, as every command-line call does.  Set-up is the package
import, spec loading and the TowerCalculator constructors (which validate
the base and the tower's connectivity); the solve phase is everything
after it, up to the last output having passed its check.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.set_int_max_str_digits(0)

import workloads  # noqa: E402  (imports nothing from the package at load time)


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv) -> int:
    inputs_path, out_path, mode = argv
    inputs = json.loads(Path(inputs_path).read_text(encoding="utf-8"))
    tracer = None

    t0 = time.perf_counter()
    from elltowers import lfunctions, voltage

    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    calcs = [
        lfunctions.TowerCalculator(voltage.load_tower_spec_file(t["spec"]))
        for t in inputs["towers"]
    ]
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}

    if mode != "setup":
        cpu0 = cpu_seconds()
        w0 = time.perf_counter()
        checks = workloads.solve(inputs, calcs)
        solve_s = time.perf_counter() - w0
        cpu = cpu_seconds() - cpu0
        result.update(
            solve_s=solve_s,
            cpu_s=cpu,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            rows=checks.rows,
            ops=checks.ops,
        )
        if tracer is not None:
            result.update(layers=tracer.metrics(), missing=tracer.missing, uncalled=tracer.uncalled())
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
