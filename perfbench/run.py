#!/usr/bin/env python3
"""The elltowers benchmark: time to a verified table, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {tables,crosscheck,nonbouquet,lvalues}
                             --seed N --seconds S --trace {0,1} [--max-depth N]

Every repetition runs in a fresh interpreter, so the package's caches start
cold as they do for each command-line call.  The workload seed is turned
into tower specs here; the program receives only those specs.  Outputs go
to ``.bench_out/<workload>/seed-<N>[-trace]/``: the inputs, any generated
tower specs (replayable with ``elltowers table --spec``), and the result.

With ``--trace 0`` the run repeats the workload until ``--seconds`` would
be exceeded (at least once) and reports the end-to-end metrics as medians
over repetitions; set-up is also sampled on its own.  With ``--trace 1``
it runs pairs of an untraced and a traced repetition and reports the
per-layer metrics of ``BENCHMARK.json``, each a median over the traced
repetitions, plus the tracing overhead.  Nothing is reported unless every
operation of every repetition passed its check.  ``--max-depth`` caps the
tower depth for quick checks.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NO_WAIT_NOTE = (
    "wait time: no metric -- every stage runs on the calling thread with jobs=1; "
    "nothing waits on a queue, a lock or another process"
)


def child_env(nproc: int) -> dict:
    """Environment of the timed interpreters: fixed hashing, and never more
    BLAS threads than processors."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        threads = int(current) if current.isdigit() and int(current) >= 1 else nproc
        env[var] = str(min(threads, nproc))
    env["PYTHONHASHSEED"] = "0"
    return env


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(nproc: int, env: dict) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "jobs": 1,
    }


def run_child(inputs_path: Path, out_path: Path, mode: str, env: dict, deadline: float) -> dict:
    """One repetition in a fresh interpreter; its result, or an error."""
    cmd = [sys.executable, str(HERE / "rep.py"), str(inputs_path), str(out_path), mode]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} repetition ran out of time"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        return {"error": f"{mode} repetition exited with {proc.returncode}: {tail[0]}"}
    return json.loads(out_path.read_text(encoding="utf-8"))


def rows_sha(rows) -> str:
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def gate(reps: list[dict], expected: int):
    """attempted, failed, and the first failure messages over all timed
    repetitions.  A repetition that crashed fails all its operations; one
    whose output rows differ from the first repetition's fails one more."""
    attempted = failed = 0
    messages = []
    first_sha = None
    for r in reps:
        attempted += expected
        if "error" in r:
            failed += expected
            messages.append(r["error"])
            continue
        passed = sum(1 for _, ok, _ in r["ops"] if ok)
        bad = max(expected - passed, 0)
        if bad == 0 and len(r["ops"]) != expected:
            bad = 1
            messages.append(f"{len(r['ops'])} operations reported, {expected} expected")
        messages += [f"{label}: {detail}" for label, ok, detail in r["ops"] if not ok]
        sha = rows_sha(r["rows"])
        if first_sha is None:
            first_sha = sha
        elif sha != first_sha:
            bad += 1
            messages.append("output rows differ between repetitions")
        failed += min(bad, expected)
    return attempted, failed, messages, first_sha


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="elltowers benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--max-depth", type=int, default=99)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.max_depth < 1:
        parser.error("--seconds and --max-depth must be positive")

    needed = (ROOT / "src" / "elltowers" / "__init__.py", ROOT / "tests" / "test_acceptance.py",
              ROOT / "fixtures", ROOT / "BENCHMARK.json")
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if absent:
        print("error: run from a checkout of the repository; missing " + ", ".join(absent),
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    sys.set_int_max_str_digits(0)
    deadline = time.monotonic() + TIME_LIMIT_S

    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    out_dir = OUT / args.workload / f"seed-{args.seed}{'-trace' if args.trace else ''}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    inputs = workloads.make_inputs(args.workload, args.seed, ROOT, out_dir, args.max_depth)
    inputs_path = out_dir / "inputs.json"
    inputs_path.write_text(json.dumps(inputs, indent=1), encoding="utf-8")
    expected = workloads.expected_ops(inputs, ROOT)

    counter = itertools.count()

    def child(mode: str) -> dict:
        return run_child(inputs_path, out_dir / f"rep-{next(counter)}-{mode}.json", mode, env, deadline)

    # set-up is sampled once per repetition, spread over the run, and
    # topped up to SETUP_SAMPLES when the repetitions are few
    setups = []
    modes = ("run", "trace") if args.trace else ("run",)
    reps = {m: [] for m in modes}
    m0 = time.monotonic()
    while True:
        r0 = time.monotonic()
        if not args.trace:
            setups.append(child("setup"))
        for m in modes:
            reps[m].append(child(m))
        last = time.monotonic() - r0
        if any("error" in r for rs in reps.values() for r in rs):
            break
        if time.monotonic() - m0 + last > args.seconds or time.monotonic() + last > deadline:
            break
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(child("setup"))

    timed = [r for rs in reps.values() for r in rs]
    attempted, failed, messages, sha = gate(timed + [r for r in setups if "error" in r], expected)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "environment": environment(nproc, env), "towers": [t["spec"] for t in inputs["towers"]],
               "repetitions": len(reps["run"]), "attempted": attempted, "failed": failed,
               "rows_sha256": sha}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps['run'])}  set-up samples {len(setups)}")
    print("environment: " + json.dumps(summary["environment"], sort_keys=True))
    for t in inputs["towers"]:
        print(f"tower {t['name']}: {t['replay']}")
    print(f"output rows sha256 {sha}")
    print(f"failed_ratio {failed / attempted:.6g} ratio  ({failed} of {attempted} operations failed)")

    metrics = {}
    if failed:
        for msg in messages[:10]:
            print(f"FAILED {msg}")
    elif args.trace:
        traced = reps["trace"]
        layers = {name: statistics.median(r["layers"].get(name, 0.0) for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace_overhead_s"] = median_of(traced, "solve_s") - median_of(reps["run"], "solve_s")
        missing = sorted(set(traced[0]["missing"]))
        uncalled = sorted(set.intersection(*(set(r["uncalled"]) for r in traced)))
        print(NO_WAIT_NOTE)
        print("wrapped names not found: " + (", ".join(missing) or "none"))
        print("wrapped names never called: " + (", ".join(uncalled) or "none"))
        summary.update(missing=missing, uncalled=uncalled)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in declared["per_layer"]}
    else:
        runs = reps["run"]
        values = {
            "solve_s": median_of(runs, "solve_s"),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "cpu_s": median_of(runs, "cpu_s"),
            "peak_rss_mb": median_of(runs, "peak_rss_mb"),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared["end_to_end"]}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    summary["metrics"] = metrics
    summary["raw"] = {m: [{k: v for k, v in r.items() if k not in ("rows", "ops")} for r in rs]
                      for m, rs in reps.items()}
    summary["raw"]["setup"] = setups
    (out_dir / "result.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
