"""The benchmark's tracer wraps mara_sim call sites by name; every one must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("name, module, attribute", _layers())
def test_traced_call_site_resolves(name, module, attribute):
    target = importlib.import_module(module)
    for part in attribute.split("."):
        assert hasattr(target, part), f"{name}: {module}.{attribute} is missing"
        target = getattr(target, part)
    assert callable(target)
