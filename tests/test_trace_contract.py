"""The benchmark's tracer wraps mara_sim call sites by name; every one must
resolve, and the engine must still call through every one of them."""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from mara_sim.harness import reference_experiment, run_experiment

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()

# The first reference cell's work counters: a change in the work a cell does
# fails here, whatever the machine's timings.
FIRST_REFERENCE_CELL_WORK = {"forward_evals": 343, "tensor_evals": 343, "grad_evals": 268,
                             "ls_candidates": 294, "precoders": 17, "workspaces": 1,
                             "bases": 1}


@pytest.mark.parametrize("name, module, attribute", tracing.LAYERS)
def test_traced_call_site_resolves(name, module, attribute):
    target = importlib.import_module(module)
    for part in attribute.split("."):
        assert hasattr(target, part), f"{name}: {module}.{attribute} is missing"
        target = getattr(target, part)
    assert callable(target)


def test_reference_cell_reaches_every_traced_layer():
    # A call that bypasses a patched module attribute would read 0 calls
    # here, and zero the benchmark's work counters for that layer.
    spec = reference_experiment()
    cell = replace(spec, seeds=spec.seeds[:1], sweep=(spec.sweep[0], spec.sweep[1][:1]))
    counters = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            rows = run_experiment(cell)
        assert all(row.ok for row in rows)
        assert tracer.failures == []
        for name, module, attribute in tracing.LAYERS:
            assert tracer.calls(name) > 0, f"{name}: {module}.{attribute} was not called"
        counters.append([tracing.work_counters(counts) for _, _, counts in tracer.cells])
    assert counters[0] == counters[1] == [FIRST_REFERENCE_CELL_WORK]

