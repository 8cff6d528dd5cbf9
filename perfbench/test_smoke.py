"""Smoke test of the benchmark at minimal size, outside the tier-1 run.

    python3 -m pytest perfbench/test_smoke.py -q

Tier-1 collects only `tests/`, so this file runs only when named. It takes
about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(*args, cwd=ROOT):
    command = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = run_benchmark("--workload", workload, "--seed", "0", "--seconds", "1",
                        "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    assert out.stdout.startswith("env ")


def test_ref_sweep_seed_zero_is_the_reference_experiment(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from mara_sim.harness import reference_experiment
    from workloads import WORKLOADS
    assert WORKLOADS["ref_sweep"].units(0) == [reference_experiment()]


def test_fails_without_the_program_source():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = run_benchmark("--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                            "--seconds", "1", "--trace", "0", cwd=bare)
        assert out.returncode != 0
        assert out.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
