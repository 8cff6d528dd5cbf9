"""Every name a `mara_sim` module imports is used in that module, every name it
defines is used in the package or exported, the third-party modules it imports
are the declared runtime dependencies, and the solver runs without
`mara_sim.checks`, the home of the reference forms, and without scipy, which
only the tests use as a reference.

`__init__.py` is exempt from the unused-import scan, and its imports use no
name for the dead-code scan: it imports names to re-export them.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mara_sim"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nimport os\nfrom a import b as c\nos.sep\n") == [
        "c", "math"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def defined_names(source: str) -> list[str]:
    """A module's top-level functions, classes and constants, and the methods of
    its classes, dunders left out."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def dead_code(sources: dict[str, str], exported: set[str]) -> list[str]:
    """Each `module:name` of sources (file name to text) that no module loads, as a
    name, as an attribute or by a from import outside `__init__.py`, and that is
    not exported."""
    loaded = set(exported)
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and module != "__init__.py":
                loaded |= {a.name for a in node.names}
    return [f"{module}:{name}" for module, source in sorted(sources.items())
            for name in defined_names(source) if name not in loaded]


def test_scan_finds_dead_code():
    sources = {
        "a.py": ("X: int = 1\nY, Z = 2, 3\ndef f(): pass\ndef g(): return X\n"
                 "class C:\n    def m(self): pass\n    def n(self): pass\n"
                 "    def __len__(self): return 0\n"),
        "b.py": "from .a import C\nC().n()\ng()\n",
        "__init__.py": "from .a import Y, Z, f\n__all__ = ['Y']\n",
    }
    assert dead_code(sources, {"Y"}) == ["a.py:Z", "a.py:f", "a.py:m"]


def test_every_definition_is_used_or_exported():
    import mara_sim
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert dead_code(sources, set(mara_sim.__all__)) == []


def unread_parameters(source: str) -> list[str]:
    """Each `function:parameter` of a def in source, methods and nested defs too, that
    its body never reads. self, cls and _-prefixed names are exempt, and so are
    lambdas: hooks that share one signature need not read all of it."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [args.vararg, args.kwarg] if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{node.name}:{p}" for p in params
                       if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    return unread


def test_scan_finds_an_unread_parameter():
    assert unread_parameters("def f(a, b): return a\n") == ["f:b"]
    assert unread_parameters(
        "class C:\n    def m(self, _x, *, y, **kw): return y\n"
        "def g(a):\n    def h(b): return a\n    return h\n"
        "k = lambda x: 0\n") == ["m:kw", "h:b"]


@pytest.mark.parametrize("module", MODULES)
def test_every_parameter_is_read(module):
    assert unread_parameters((PACKAGE / module).read_text()) == []


def test_every_exported_name_resolves():
    import mara_sim
    assert [name for name in mara_sim.__all__ if not hasattr(mara_sim, name)] == []


REFERENCE_FORMS = ("ecsi", "brute_force_positions", "pattern_power", "gram_matrix")
# Reference forms only the tests use; they live in tests/reference_forms.py.
TEST_REFERENCE_FORMS = ("sinr", "mrt_precoder", "pattern_gain", "brute_force_positions_loop",
                        "fd_gradient", "gradient_errors", "workspace_arrays_loop")


def imported_modules(source: str) -> set[str]:
    """Package-relative names that a module's import statements name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            found |= {module} | {f"{module}.{a.name}" for a in node.names}
    return {name.removeprefix("mara_sim").strip(".") for name in found}


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())
    declared = {re.split(r"[<>=!~ \[;]", dep)[0] for dep in pyproject["project"]["dependencies"]}
    top_level = {name.split(".")[0] for m in MODULES + ["__init__.py"]
                 for name in imported_modules((PACKAGE / m).read_text())}
    package = {""} | {m[:-3] for m in MODULES}
    assert top_level - package - set(sys.stdlib_module_names) == declared


def test_only_the_cli_imports_checks():
    assert [m for m in MODULES + ["__init__.py"]
            if "checks" in imported_modules((PACKAGE / m).read_text())] == ["cli.py"]


def test_reference_forms_live_only_in_checks():
    from mara_sim import checks
    assert all(getattr(checks, name).__module__ == "mara_sim.checks"
               for name in REFERENCE_FORMS)
    engine = [importlib.import_module(f"mara_sim.{m[:-3]}") for m in MODULES
              if m != "checks.py"]
    assert [(mod.__name__, name) for mod in engine for name in REFERENCE_FORMS
            if hasattr(mod, name)] == []


def test_test_only_reference_forms_live_under_tests():
    import reference_forms
    assert all(getattr(reference_forms, name).__module__ == "reference_forms"
               for name in TEST_REFERENCE_FORMS)
    package = [importlib.import_module(f"mara_sim.{m[:-3]}") for m in MODULES]
    assert [(mod.__name__, name) for mod in package for name in TEST_REFERENCE_FORMS
            if hasattr(mod, name)] == []


def test_a_cell_runs_without_loading_checks():
    code = ("import dataclasses, sys, mara_sim\n"
            "spec = mara_sim.reference_experiment(num_seeds=1)\n"
            "rows = mara_sim.run_experiment(dataclasses.replace(\n"
            "    spec, sweep=('total_power_w', (1.0,))))\n"
            "print(all(r.ok for r in rows), 'mara_sim.checks' in sys.modules,\n"
            "      any(m.split('.')[0] == 'scipy' for m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["True", "False", "False"]
