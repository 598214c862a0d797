"""The benchmark records no number unless every output matched its reference.

Each test copies the source tree into a temporary checkout, breaks one
reference or one result there, and runs the benchmark at reduced depth.

Run: python3 -m pytest perfbench/test_gate.py -q
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def make_checkout(tmp_path: Path, with_source: bool = True) -> Path:
    dst = tmp_path / "checkout"
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", dst / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    if with_source:
        shutil.copytree(ROOT / "src", dst / "src", ignore=skip)
        shutil.copytree(ROOT / "fixtures", dst / "fixtures")
        (dst / "tests").mkdir()
        shutil.copy(ROOT / "tests" / "test_acceptance.py", dst / "tests")
    return dst


def bench(dst: Path, workload: str, depth: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--max-depth", str(depth)],
        cwd=dst, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def assert_refused(code, result):
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"] == {}


def test_clean_run_records_every_end_to_end_metric(tmp_path):
    code, result = bench(make_checkout(tmp_path), "crosscheck", 2)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}


def test_golden_row_off_by_one_fails_the_run(tmp_path):
    dst = make_checkout(tmp_path)
    path = dst / "tests" / "test_acceptance.py"
    text = path.read_text(encoding="utf-8")
    tables = next(
        node.value for node in ast.parse(text).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TABLES"
    )
    first = tables.values[0].elts[0]  # layer 1 of the first tower
    lines = text.splitlines(keepends=True)
    line = lines[first.lineno - 1]
    lines[first.lineno - 1] = (
        line[: first.col_offset] + str(first.value + 1) + line[first.end_col_offset:]
    )
    path.write_text("".join(lines), encoding="utf-8")
    assert_refused(*bench(dst, "tables", 2))


def test_kappa_off_by_one_fails_the_run(tmp_path):
    dst = make_checkout(tmp_path)
    path = dst / "src" / "elltowers" / "treecount.py"
    path.write_text(
        path.read_text(encoding="utf-8")
        + "\n\n_exact_kappa_matrix_tree = kappa_matrix_tree\n\n\n"
        "def kappa_matrix_tree(g, ell=None, drop=0):\n"
        "    tc = _exact_kappa_matrix_tree(g, ell, drop)\n"
        "    return TreeCount(tc.kappa + 1, tc.ell, tc.ord_ell, tc.route)\n",
        encoding="utf-8",
    )
    assert_refused(*bench(dst, "crosscheck", 2))


def test_without_the_source_tree_it_exits_without_a_result(tmp_path):
    dst = make_checkout(tmp_path, with_source=False)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=dst, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
