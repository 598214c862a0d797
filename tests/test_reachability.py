"""Every package function and class is reached from production.

Production is the command line, cli.main, and the scripts in scripts/.
These tests read the source with ast and follow the names each body
references: a bare name resolves in its own module, through that module's
imports from the package, and an attribute reaches every package method
of that name.  A class brings its dunder methods and its class body with
it.  Module-level imports are not edges, so an import kept only for the
bench reaches nothing.  A package function, class or method the walk does
not reach fails, unless ALLOWED names it with its consumer; allowed names
are roots too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "elltowers"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

ALLOWED = {
    "lfunctions.enumerate_orbits": "called by perfbench/workloads.py",
    "lfunctions.TowerCalculator.level_ords": "called by perfbench/workloads.py",
    "fit.valuation_sequence": "called by perfbench/workloads.py",
    "voltage.tower_spec_to_json": "called by perfbench/workloads.py",
    "cyclotomic.pi_adic_ord": "in perfbench/tracer.py's TARGETS, looked up as elltowers.lfunctions.pi_adic_ord",
    "series.iwasawa_invariants_d1": "waits for its caller, ROADMAP item 3's certified d = 1 growth formula",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Program:
    """The package's definitions, each with the AST nodes whose references
    it follows, and the imports that resolve a module's bare names."""

    def __init__(self):
        self.bodies = {}  # "module.name" or "module.Class.method" -> nodes
        self.reported = set()  # the functions, classes and non-dunder methods
        self.methods = {}  # attribute name -> the methods of that name
        self.imports = {}  # (module, local name) -> (module, name)
        self.roots = [("cli", [ast.Name("main")])]
        for path in sorted(PACKAGE.glob("*.py")):
            self._read_module(path.stem, ast.parse(path.read_text(encoding="utf-8")))
        for path in SCRIPTS:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            self._read_imports(f"scripts/{path.stem}", tree)
            self.roots.append((f"scripts/{path.stem}", tree.body))

    def _read_imports(self, module, tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("elltowers")):
                source = (node.module or "").removeprefix("elltowers").lstrip(".") or "__init__"
                for alias in node.names:
                    self.imports[module, alias.asname or alias.name] = (source, alias.name)

    def _read_module(self, module, tree):
        self._read_imports(module, tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._define(f"{module}.{node.name}", [node])
            elif isinstance(node, ast.ClassDef):
                own = [*node.decorator_list, *node.bases, *node.keywords]
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _dunder(stmt.name):
                        self._define(f"{module}.{node.name}.{stmt.name}", [stmt])
                        self.methods.setdefault(stmt.name, []).append(f"{module}.{node.name}.{stmt.name}")
                    else:
                        own.append(stmt)
                self._define(f"{module}.{node.name}", own)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            self.bodies[f"{module}.{name.id}"] = [node]
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                self.roots.append((module, [node]))  # runs on import

    def _define(self, key, nodes):
        self.bodies[key] = nodes
        self.reported.add(key)

    def resolve(self, module, name):
        """The definition a bare name in module refers to, or None."""
        while (module, name) in self.imports:
            module, name = self.imports[module, name]
        key = f"{module}.{name}"
        return key if key in self.bodies else None

    def reached(self, extra_roots=()):
        """Every definition the roots reach, each walked once."""
        seen = set()
        todo = list(self.roots) + [(key.split(".")[0], self.bodies[key]) for key in extra_roots]
        while todo:
            module, nodes = todo.pop()
            for node in nodes:
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name):
                        keys = [self.resolve(module, sub.id)]
                    elif isinstance(sub, ast.Attribute):
                        keys = self.methods.get(sub.attr, [])
                    else:
                        continue
                    for key in keys:
                        if key is not None and key not in seen:
                            seen.add(key)
                            todo.append((key.split(".")[0], self.bodies[key]))
        return seen


PROGRAM = _Program()


def test_every_package_definition_is_reached_from_production():
    unreached = PROGRAM.reported - PROGRAM.reached(ALLOWED) - set(ALLOWED)
    assert not unreached, f"no caller on the CLI's or scripts' paths: {sorted(unreached)}"


def test_the_allowlist_names_only_definitions_production_does_not_reach():
    assert set(ALLOWED) <= PROGRAM.reported, f"allowed but not defined: {sorted(set(ALLOWED) - PROGRAM.reported)}"
    stale = set(ALLOWED) & PROGRAM.reached()
    assert not stale, f"allowed but reached from production: {sorted(stale)}"
