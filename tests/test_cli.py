import argparse
import importlib.util
import json
import re
import subprocess
import sys

import pytest

from elltowers import cli

from conftest import FIXTURES, fixture_spec
from test_acceptance import TABLES

E1 = str(FIXTURES / "bouquet2_ell2.json")
E4 = str(FIXTURES / "bouquet2_ell3.json")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "elltowers.cli", *args], capture_output=True, text=True)


def test_validate_good_spec():
    result = run_cli("validate", "--spec", E1)
    assert result.returncode == 0
    assert "connected at every layer" in result.stdout
    assert "RuntimeWarning" not in result.stderr


def test_validate_non_generating_voltages(tmp_path):
    doc = {
        "graph": {"vertices": 1, "edges": [[0, 0], [0, 0]]},
        "ell": 2,
        "d": 2,
        "alpha": [[2, 0], [0, 2]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = run_cli("validate", "--spec", str(path))
    assert result.returncode == 1
    assert "do not generate mod 2" in result.stdout


def test_validate_reports_disconnected_base_once(tmp_path):
    doc = {"graph": {"vertices": 2, "edges": [[0, 0], [1, 1]]}, "ell": 2, "d": 1, "alpha": [[1], [1]]}
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc))
    result = run_cli("validate", "--spec", str(path))
    assert result.returncode == 1
    fails = [line for line in result.stdout.splitlines() if line.startswith("FAIL:")]
    assert [line for line in fails if "connected" in line] == ["FAIL: graph is not connected"]


@pytest.mark.parametrize("doc, args, message", [
    (None, ("lvalues", "--level", "40"), "level 40: 3298534883325 character orbits"),
    (None, ("lvalues", "--level", "100000"), "level 100000: at least 2^100001 character orbits"),
    ({"ell": 1000000007, "d": 2, "alpha": [[1, 0], [0, 1]]}, ("table", "--n-max", "1", "--budget", "0"),
     "level 1: 1000000008 character orbits"),
    ({"ell": 2, "d": 1, "alpha": [[1], [2]]}, ("lvalues", "--level", "40"),
     "level 21: value rows of 2097152 entries"),
    ({"ell": 1000000007, "d": 1, "alpha": [[1], [2]]}, ("table", "--n-max", "1", "--budget", "0"),
     "ell = 1000000007: Pascal tables of 1000000014000000049 entries"),
], ids=["orbits", "orbits-deep", "orbits-at-level-1", "row-width", "large-ell"])
def test_capacity_limits_exit_one_with_an_error_line(tmp_path, doc, args, message):
    spec = E1
    if doc is not None:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"graph": {"vertices": 1, "edges": [[0, 0], [0, 0]]}, **doc}))
    result = run_cli(args[0], "--spec", str(spec), *args[1:])
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {message}, past the capacity of ")
    assert "Traceback" not in result.stderr and result.stdout == ""


@pytest.mark.parametrize(
    "ell",
    [318665857834031151167461, 3317044064679887385961981],
    ids=["psi12_composite", "psi13_past_exact_bound"],
)
def test_validate_refuses_pseudoprime_ell(tmp_path, ell):
    doc = {"graph": {"vertices": 1, "edges": [[0, 0], [0, 0]]}, "ell": ell, "d": 1, "alpha": [[1], [0]]}
    path = tmp_path / "pseudoprime.json"
    path.write_text(json.dumps(doc))
    result = run_cli("validate", "--spec", str(path))
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: ell = {ell} ")
    assert result.stdout == ""


def test_malformed_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    for content in (b"{not json", b'{"ell": "\xff"}'):
        path.write_bytes(content)
        result = run_cli("validate", "--spec", str(path))
        assert result.returncode == 2
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr
    # JSON booleans where the format expects integers
    doc = {"graph": {"vertices": 1, "edges": [[0, 0], [0, False]]}, "ell": 2, "d": True, "alpha": [[True], [0]]}
    path.write_text(json.dumps(doc))
    result = run_cli("table", "--spec", str(path), "--n-max", "3")
    assert result.returncode == 2
    assert "error:" in result.stderr


def test_missing_file_exits_two(tmp_path):
    for path in ("/nonexistent/spec.json", str(tmp_path)):
        result = run_cli("validate", "--spec", path)
        assert result.returncode == 2
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr


def test_table_csv_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        result = run_cli("table", "--spec", E1, "--n-max", "3", "--budget", "20", "--out", str(out))
        assert result.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "n,ord,route"
    assert lines[1] == "1,5,both-agree"
    assert lines[2] == "2,19,both-agree"
    assert lines[3] == "3,61,l-function"
    # timing goes to stderr, never into the data file
    assert "s" not in lines[1].split(",")[1]


def test_table_json_format(tmp_path):
    out = tmp_path / "t.json"
    result = run_cli("table", "--spec", E4, "--n-max", "2", "--budget", "0", "--format", "json", "--out", str(out))
    assert result.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["ell"] == 3
    assert [r["ord"] for r in doc["rows"]] == [6, 28]


def test_table_layer_zero():
    result = run_cli("table", "--spec", E1, "--n-max", "0")
    assert result.returncode == 0
    assert "0,0,matrix-tree" in result.stdout


def test_fit_command():
    result = run_cli("fit", "--spec", E4, "--n-max", "5", "--budget", "0", "--format", "json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["formula"] == "4*3^n - 2*n - 4"
    assert doc["coefficients"]["X"] == "4"
    assert doc["coefficients"]["Y"] == "-2"
    assert doc["verified_range"] == [1, 5]
    assert doc["leading_coefficients_integral"] is True


# stable: the window one layer earlier gives the same fit; null when the
# window already starts at layer 1
@pytest.mark.parametrize("fixture, n_max, stable", [
    ("bouquet4_ell2_skew", 6, False),
    ("bouquet4_ell2_skew", 7, False),
    ("bouquet4_ell2_skew", 8, False),
    ("bouquet4_ell2_skew", 9, True),
    ("bouquet2_ell3", 5, None),
])
def test_fit_stability(fixture, n_max, stable):
    spec = str(FIXTURES / f"{fixture}.json")
    result = run_cli("fit", "--spec", spec, "--n-max", str(n_max), "--budget", "0", "--format", "json")
    assert result.returncode == 0
    assert json.loads(result.stdout)["stable"] is stable


def test_fit_needs_enough_layers():
    result = run_cli("fit", "--spec", E4, "--n-max", "3", "--budget", "0")
    assert result.returncode == 1
    assert result.stderr == "error: need at least 5 layers to fit (got 3)\n"


def test_lvalues_command():
    result = run_cli("lvalues", "--spec", E1, "--level", "1")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "representative,size,value,ord"
    values = sorted(line.split(",")[2] for line in lines[1:])
    assert values == ["4", "4", "8"]


def test_lvalues_rejects_inadmissible_base(tmp_path):
    doc = {"graph": {"vertices": 1, "edges": [[0, 0]]}, "ell": 2, "d": 1, "alpha": [[1]]}
    path = tmp_path / "one_loop.json"
    path.write_text(json.dumps(doc))
    result = run_cli("lvalues", "--spec", str(path), "--level", "2")
    assert result.returncode == 1
    assert "base graph is not admissible" in result.stderr
    assert result.stdout == ""


def test_qseries_rejects_inadmissible_base(tmp_path):
    doc = {"graph": {"vertices": 2, "edges": [[0, 0], [1, 1]]}, "ell": 2, "d": 1, "alpha": [[1], [0]]}
    path = tmp_path / "disconnected.json"
    path.write_text(json.dumps(doc))
    result = run_cli("qseries", "--spec", str(path))
    assert result.returncode == 1
    assert "base graph is not admissible" in result.stderr
    assert result.stdout == ""


def test_lvalues_digit_limit():
    result = run_cli("lvalues", "--spec", E1, "--level", "3", "--digit-limit", "2")
    assert result.returncode == 0
    assert any(line.split(",")[2] == "" for line in result.stdout.splitlines()[1:])


def test_qseries_command():
    result = run_cli("qseries", "--spec", E1)
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["unit_exponents"] == [1, 1]
    assert doc["coefficients"] == {"0,2": "-1", "1,2": "1", "2,0": "-1", "2,1": "1"}


def test_export_dot(tmp_path):
    out = tmp_path / "layer.dot"
    result = run_cli("export-dot", "--spec", E1, "--layer", "1", "--out", str(out))
    assert result.returncode == 0
    dot = out.read_text()
    assert dot.count("fillcolor") == 4


def test_export_dot_budget_error():
    result = run_cli("export-dot", "--spec", E1, "--layer", "6", "--budget", "100")
    assert result.returncode == 1


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(("table", "--spec", E1), id="missing-n-max"),
        pytest.param(("table", "--spec", E1, "--n-max", "2", "--jobs", "2"), id="jobs-removed"),
        pytest.param(("table", "--spec", E1, "--n-max", "-1"), id="n-max-negative"),
        pytest.param(("fit", "--spec", E1, "--n-max", "5", "--budget", "-1"), id="budget-negative"),
        pytest.param(("lvalues", "--spec", E1, "--level", "0"), id="level-0"),
        pytest.param(("export-dot", "--spec", E1, "--layer", "-1"), id="layer-negative"),
        pytest.param(("qseries", "--spec", E1, "--trunc", "6"), id="trunc-removed"),
        pytest.param(("lvalues", "--spec", E1, "--level", "2", "--digit-limit", "-5"), id="digit-limit-negative"),
    ],
)
def test_usage_error_exits_two(args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert "error:" in result.stderr


@pytest.mark.parametrize("args", [("--n-max", "-2"), ("--n-max", "0"), ("--budget", "-1")])
def test_reproduce_tables_rejects_bad_range(args):
    # argparse rejects the value before any fixture runs
    script = FIXTURES.parent / "scripts" / "reproduce_tables.py"
    result = subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True)
    assert result.returncode == 2
    assert "error:" in result.stderr
    assert result.stdout == ""


def test_reproduce_tables_success():
    script = FIXTURES.parent / "scripts" / "reproduce_tables.py"
    result = subprocess.run(
        [sys.executable, str(script), "--n-max", "3", "--budget", "100"], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    got = {}
    for line in result.stdout.splitlines():
        if line.startswith("== "):
            name = line.split()[1]
            got[name] = []
        elif match := re.search(r"ord=\s*(\d+)", line):
            got[name].append(int(match.group(1)))
    assert got == {name: table[:3] for name, table in TABLES.items()}
    assert re.fullmatch(r"grand total \d+\.\d\ds", result.stdout.splitlines()[-1])


def _level_curve_module():
    script = FIXTURES.parent / "scripts" / "level_curve.py"
    loaded = importlib.util.spec_from_file_location("level_curve", script)
    module = importlib.util.module_from_spec(loaded)
    loaded.loader.exec_module(module)
    return module


def test_level_curve_stops_after_level_one_at_zero_seconds():
    # level 1's orbit orders sum to TABLES[name][0] + d: kappa_X is prime to ell
    script = FIXTURES.parent / "scripts" / "level_curve.py"
    result = subprocess.run([sys.executable, str(script), "--seconds", "0"], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    header, *lines = result.stdout.splitlines()
    assert header == "fixture,level,orbits,sum_of_orders,seconds"
    rows = [line.split(",") for line in lines]
    assert {name: (int(k), int(orbits), int(total)) for name, k, orbits, total, _ in rows} == {
        "bouquet2_ell2": (1, 3, 7),
        "bouquet2_ell3": (1, 4, 8),
        "bouquet3_ell3": (1, 4, 12),
        "bouquet4_ell2_parallel": (1, 3, 10),
        "bouquet4_ell2_skew": (1, 3, 7),
    }
    assert all(float(seconds) > 0 for *_, seconds in rows)


def test_level_curve_sums_reproduce_the_tables():
    # the level sums add up to the frozen tables: ord_ell(kappa_n) is
    # sum_{k <= n} S_k - d n, since kappa_X is prime to ell
    script = FIXTURES.parent / "scripts" / "level_curve.py"
    result = subprocess.run([sys.executable, str(script), "--seconds", "0.01"], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    sums = {name: [] for name in TABLES}
    for line in result.stdout.splitlines()[1:]:
        name, k, _, total, _ = line.split(",")
        assert int(k) == len(sums[name]) + 1
        sums[name].append(int(total))
    for name, table in TABLES.items():
        d = fixture_spec(name).d
        for n, want in enumerate(table[: len(sums[name])], start=1):
            assert sum(sums[name][:n]) - d * n == want, (name, n)


@pytest.mark.parametrize("text", ["inf", "1e400", "-inf", "nan", "-1"])
def test_level_curve_refuses_seconds_that_never_stop(text):
    script = FIXTURES.parent / "scripts" / "level_curve.py"
    module = _level_curve_module()
    with pytest.raises(argparse.ArgumentTypeError):
        module._seconds(text)
    assert module._seconds("0") == 0 and module._seconds("2.5") == 2.5
    # the command line exits 2 before any level is timed
    result = subprocess.run(
        [sys.executable, str(script), f"--seconds={text}", "bouquet2_ell2"], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 2 and result.stdout == ""
    assert "finite number" in result.stderr


def test_level_curve_stops_at_max_level():
    # levels 1..40, the last on the closed form k 2^k + 3 2^k - 4
    script = FIXTURES.parent / "scripts" / "level_curve.py"
    result = subprocess.run(
        [sys.executable, str(script), "--max-level", "40", "bouquet2_ell2"], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
    assert [int(k) for _, k, *_ in rows] == list(range(1, 41))
    assert int(rows[-1][3]) == 40 * 2**40 + 3 * 2**40 - 4


@pytest.mark.parametrize("text", ["0", "-3", "2.5", "x"])
def test_level_curve_refuses_a_max_level_below_one(text):
    # the script parses --max-level with the command line's own parser
    module = _level_curve_module()
    assert module._positive is cli._positive
    with pytest.raises(argparse.ArgumentTypeError):
        cli._positive(text)
    assert cli._positive("1") == 1
    script = FIXTURES.parent / "scripts" / "level_curve.py"
    result = subprocess.run(
        [sys.executable, str(script), f"--max-level={text}", "bouquet2_ell2"], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 2 and result.stdout == ""
    assert "integer >= 1" in result.stderr


def test_level_curve_exits_one_past_the_capacity(monkeypatch, capsys):
    from elltowers import lfunctions

    module = _level_curve_module()
    monkeypatch.setattr(lfunctions, "_MAX_OPEN_CLASSES", 2)
    monkeypatch.setattr(sys, "argv", ["level_curve.py", "bouquet2_ell2"])
    assert module.main() == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1].startswith("bouquet2_ell2,1,3,7,")
    assert "error: bouquet2_ell2: level 2: 3 open classes at depth 1" in captured.err


@pytest.mark.parametrize("name", ["nonexistent", "bouquet2_ell2.json"])
def test_level_curve_rejects_unknown_fixture(name):
    # names are checked before the header is printed
    script = FIXTURES.parent / "scripts" / "level_curve.py"
    result = subprocess.run(
        [sys.executable, str(script), "--seconds", "0", "bouquet2_ell2", name], capture_output=True, text=True
    )
    assert result.returncode == 2
    assert "error:" in result.stderr and name in result.stderr
    assert result.stdout == ""
