import json
import os
import subprocess
import sys

import pytest

from conftest import FIXTURES

E1 = str(FIXTURES / "bouquet2_ell2.json")
E4 = str(FIXTURES / "bouquet2_ell3.json")


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "elltowers.cli", *args],
        capture_output=True,
        text=True,
        env=None if env is None else {**os.environ, **env},
    )


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


def test_fit_needs_enough_layers():
    result = run_cli("fit", "--spec", E4, "--n-max", "3", "--budget", "0")
    assert result.returncode == 1


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
        pytest.param(("table", "--spec", E1, "--n-max", "2", "--jobs", "0"), id="jobs-0"),
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


def test_budget_env():
    result = run_cli("table", "--spec", E1, "--n-max", "2", env={"ELLTOWERS_BUDGET": "10"})
    assert result.returncode == 0
    assert result.stdout.splitlines()[1:] == ["1,5,both-agree", "2,19,l-function"]
    result = run_cli("table", "--spec", E1, "--n-max", "1", env={"ELLTOWERS_BUDGET": "abc"})
    assert result.returncode == 2
    assert "error: ELLTOWERS_BUDGET" in result.stderr
