"""The benchmark's tracer wraps mara_sim call sites by name; every one must
resolve, and the engine must still call through every one of them."""

import importlib
import importlib.util
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from mara_sim import optim
from mara_sim.harness import reference_experiment, run_experiment

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()

# The first reference cell's traced call counts, whatever the machine's timings.
# A block's restarts share each call, so these count calls; the rows below count work.
FIRST_REFERENCE_CELL_WORK = {"forward_evals": 238, "tensor_evals": 238, "grad_evals": 181,
                             "ls_candidates": 205, "precoders": 17, "workspaces": 1,
                             "bases": 1}

# The rows those calls score: every point and candidate the first reference cell
# evaluates, and every point it takes a gradient at.
FIRST_REFERENCE_CELL_ROWS = {"scored": 793, "gradient": 268}

# The same cell at the benchmark's large_array size, U*M*G*L = 12,288, where the
# line search scores each search's first step alone: its SE calls and rows.
FIRST_LARGE_CELL_CALLS = {"scored": 217, "gradient": 151}
FIRST_LARGE_CELL_ROWS = {"scored": 420, "gradient": 230}
LARGE_ARRAY = dict(num_subcarriers=32, num_bs_antennas=8, num_ues=4, num_paths_per_ue=12,
                   shod_max_degree=3)


def first_reference_cell():
    spec = reference_experiment()
    return replace(spec, seeds=spec.seeds[:1], sweep=(spec.sweep[0], spec.sweep[1][:1]))


def first_large_cell():
    cell = first_reference_cell()
    return replace(cell, base=replace(cell.base, **LARGE_ARRAY))


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
    cell = first_reference_cell()
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



def rows_and_calls(cell, monkeypatch):
    # Each SE call's terms (..., G, U) and each gradient's `rest` carry one row
    # per point.
    calls, rows = Counter(), Counter()

    def counted(key, fn):
        def wrapped(*args):
            calls[key] += 1
            rows[key] += math.prod(args[-1 if key == "scored" else -2].shape[:-2])
            return fn(*args)
        return wrapped

    monkeypatch.setattr(optim, "sum_se_arrays", counted("scored", optim.sum_se_arrays))
    for name in ("_grad_positions_all", "_grad_patterns_all"):
        monkeypatch.setattr(optim, name, counted("gradient", getattr(optim, name)))
    assert all(row.ok for row in run_experiment(cell))
    return dict(rows), dict(calls)


def test_reference_cell_scores_the_same_rows_in_shared_calls(monkeypatch):
    # The lockstep restarts make fewer calls over the same rows.
    rows, calls = rows_and_calls(first_reference_cell(), monkeypatch)
    assert rows == FIRST_REFERENCE_CELL_ROWS
    assert calls == {"scored": FIRST_REFERENCE_CELL_WORK["forward_evals"],
                     "gradient": FIRST_REFERENCE_CELL_WORK["grad_evals"]}
    assert calls["scored"] < rows["scored"] and calls["gradient"] < rows["gradient"]


def test_large_cell_scores_its_pinned_rows(monkeypatch):
    # Rows this wide cost more than a call, so each search scores its first
    # step alone and makes more calls over fewer rows.
    assert rows_and_calls(first_large_cell(), monkeypatch) == (FIRST_LARGE_CELL_ROWS,
                                                               FIRST_LARGE_CELL_CALLS)
