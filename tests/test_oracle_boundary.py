"""The two exact routes stay independent by construction.

The reference implementations the tests compare production code against
live in tests/oracles.py.  These tests read the source with ast:
no package module defines or imports an oracle, the package's CycInt
stays a record with no ring arithmetic, the oracles import from the
package only data types and the routines they are built on (never a
routine they check), and an import the package keeps only so that
perfbench/tracer.py can wrap it names a traced target.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "elltowers"
MODULES = sorted(PACKAGE.glob("*.py"))

ORACLES = {
    "_reduce_exponent_vector",
    "Cyclotomic",
    "from_exponents",
    "conjugate",
    "is_rational_integer",
    "constant_value",
    "orbit_members",
    "_twisted_counts",
    "twisted_adjacency",
    "l_value_at_one",
    "norm_by_conjugates",
    "kappa_by_enumeration",
    "GraphMatrices",
    "matrices",
    "IharaPolynomial",
    "ihara_h",
}

# the production routines the oracles check
CHECKED = {
    "det_mod_prime",
    "det_exact_modular",
    "kappa_matrix_tree",
    "reduced_laplacian",
    "character_values",
    "char_poly",
    "pi_adic_ords",
    "pi_adic_ord",
    "norm_to_int",
    "TowerCalculator",
    "orbit_records",
}

# what the oracles may take from the package: data types, the voltage
# reduction, the fraction-free determinant, and det_in_ring, which P is
# built with too until P gets a route of its own
ORACLE_IMPORTS = {
    "CycInt",
    "CharacterIndex",
    "MultiGraph",
    "VoltageSpec",
    "reduce_voltage",
    "bareiss_det",
    "det_in_ring",
}


_spec = importlib.util.spec_from_file_location("perfbench_tracer", TESTS.parent / "perfbench" / "tracer.py")
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)
TRACED = {(module, attr) for _, module, attr in _tracer.TARGETS}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree: ast.Module):
    """(module, name) for every import: name is None for a plain import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield "." * node.level + (node.module or ""), alias.name


def _defined(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_package_neither_defines_nor_imports_an_oracle(path):
    tree = _tree(path)
    assert not ORACLES & set(_defined(tree)), f"{path.name} defines an oracle"
    for module, name in _imports(tree):
        assert "oracles" not in module.split(".") and name not in ORACLES, (
            f"{path.name} imports {name or module} from the tests' oracles"
        )


def test_cycint_is_a_record():
    # the ring's dunders cannot go into ORACLES: series.LaurentPoly defines
    # them for its own ring
    tree = _tree(PACKAGE / "cyclotomic.py")
    (cls,) = (node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "CycInt")
    body = ast.Module(body=cls.body, type_ignores=[])
    extra = set(_defined(body)) - {"__slots__", "__init__", "__eq__", "__hash__", "__repr__"}
    assert not extra, f"CycInt defines {sorted(extra)}; the ring belongs in tests/oracles.py"


def test_oracles_import_no_routine_they_check():
    for module, name in _imports(_tree(TESTS / "oracles.py")):
        top = module.split(".")[0]
        if top == "elltowers":
            assert name is not None, f"oracles.py imports the module {module}"
            assert name not in CHECKED, f"oracles.py routes through {module}.{name}, which it checks"
            assert name in ORACLE_IMPORTS, f"oracles.py imports {module}.{name}"
        else:
            assert top in sys.stdlib_module_names, f"oracles.py imports {module}"


def _unused_noqa_imports(path: Path) -> set[str]:
    """Names an import marked noqa: F401 binds and the module never reads."""
    text = path.read_text(encoding="utf-8")
    lines, tree = text.splitlines(), ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                out |= {alias.asname or alias.name for alias in node.names} - read
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_tracer_only_imports_name_a_traced_target(path):
    module = f"elltowers.{path.stem}"
    for name in _unused_noqa_imports(path):
        assert (module, name) in TRACED, f"{module} imports {name} for no caller and no tracer target"
