"""Every name a `mara_sim` module imports is used in that module.

`__init__.py` is exempt: it imports names to re-export them.
"""

import ast
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


def test_every_exported_name_resolves():
    import mara_sim
    assert [name for name in mara_sim.__all__ if not hasattr(mara_sim, name)] == []
