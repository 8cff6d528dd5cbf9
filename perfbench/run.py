#!/usr/bin/env python3
"""The mara-sim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: `mara_sim` is imported from the
checkout's `src/`, and the run fails with exit code 2 when that is absent.
Workloads are defined in `workloads.py`; every input comes from `--seed`.

--trace 0 times the workload with tracing off. It samples `setup_s` in fresh
interpreters, runs one untimed warm-up cell, then loops over the workload's
units (one client, closed loop): at least one whole pass, then on until the
next call would likely end past `--seconds`. It prints every end-to-end
metric.

--trace 1 runs one pass untraced at the workload's thread count, one pass
single-threaded and untraced when that differs, one pass single-threaded
with spans around every layer (see `tracing.py`), and a traced repeat of the
pass's opening cells. It prints every per-layer metric, and one `cell`
line per traced cell with its time and deterministic work counters.
`--seconds` does not apply: the work is one fixed pass.

Both modes check the outputs: no error or nesting-violation rows, and rows
(as `emit_csv(include_wall_time=False)` writes them) identical across every
repeat, thread count and traced pass. The traced run also checks every
precoder's power and every returned state, and that work counters repeat.
A solve that fails any check counts in `failed`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; earlier lines are the
`env` record, a `report` and, when traced, the `cell` lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import bench_env

HERE = Path(__file__).resolve().parent
WORK_DIR = bench_env.ROOT / ".perfbench_work"
SETUP_PROBES = 3
COUNTED_LAYERS = ("scenario.generate", "channel.workspace", "shod.basis", "shod.omega",
                  "channel.tensor", "se.sum_se", "optim.grad", "optim.ascent",
                  "optim.precoder", "optim.water_fill", "optim.solve")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def ratio(num, den) -> float:
    return num / den if den else 0.0


def csv_lines(rows) -> list[str]:
    """The rows as `emit_csv(include_wall_time=False)` writes them, one line each."""
    from mara_sim.harness import emit_csv
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"rows-{os.getpid()}.csv"
    try:
        emit_csv(rows, path, include_wall_time=False)
        return path.read_text(encoding="utf-8").splitlines()[1:]
    finally:
        path.unlink(missing_ok=True)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def by_cell(rows) -> dict:
    """Rows grouped by cell, (seed, sweep value) -> [(row, csv line)], in row order."""
    cells = {}
    for row, line in zip(rows, csv_lines(rows)):
        cells.setdefault((row.seed, row.sweep_value), []).append((row, line))
    return cells


def failed_solves(cell, schemes) -> int:
    """Failed solves in one cell: every solve when any is missing or errored,
    else one per nesting-violation row."""
    solved = sorted(r.scheme for r, _ in cell if r.ok and math.isfinite(r.se_sum))
    if solved != sorted(schemes):
        return len(schemes)
    return min(len(schemes), len(cell) - len(schemes))


def tail(values) -> tuple[float, float]:
    """The highest nearest-rank percentile with at least ten values beyond it,
    as (percentile, value); the maximum when there are ten values or fewer."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def probe_seconds(args) -> float:
    """Wall time of a fresh interpreter that imports mara_sim and runs one cell."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    start = perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=150)
    return perf_counter() - start


def timed_run(workload, units, args) -> dict:
    from mara_sim.harness import run_experiment
    from workloads import cells_in, first_cell

    setup = [probe_seconds(args) for _ in range(1 if args.smoke else SETUP_PROBES)]
    os.environ["MARA_SIM_THREADS"] = str(workload.threads)
    run_experiment(first_cell(units))
    n = len(units)
    calls = []  # (unit index, rows, seconds)
    start = perf_counter()
    while True:
        k = len(calls) % n
        t0 = perf_counter()
        rows = run_experiment(units[k])
        calls.append((k, rows, perf_counter() - t0))
        elapsed = perf_counter() - start
        # After one whole pass, stop before a call that would likely end
        # past --seconds.
        if len(calls) >= n and (
                args.smoke or elapsed * (len(calls) + 1) / len(calls) > args.seconds):
            break
    wall = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    schemes = units[0].schemes
    first_pass = {}
    attempted = failed = cells = 0
    latencies = {}  # (unit index, cell) -> seconds of each timed repeat
    for k, rows, seconds in calls:
        cells_of_call = by_cell(rows)
        lines = [line for cell in cells_of_call.values() for _, line in cell]
        repeat_differs = first_pass.setdefault(k, lines) != lines
        for key, cell in cells_of_call.items():
            cells += 1
            attempted += len(schemes)
            failed += len(schemes) if repeat_differs else failed_solves(cell, schemes)
            # Cells that share a call (ref_sweep's pool) are not timed one
            # by one from outside: each is given the call's time per cell.
            latencies.setdefault((k, key), []).append(seconds / len(cells_of_call))
    # Each cell's latency is the median of its repeats, and throughput the
    # median over whole passes: this keeps one-off stalls of the machine out.
    per_cell = [statistics.median(v) for v in latencies.values()]
    tail_pct, tail_s = tail(per_cell)
    pass_cells = sum(cells_in(spec) for spec in units)
    pass_rates = [pass_cells / sum(sec for _, _, sec in calls[j * n:(j + 1) * n])
                  for j in range(len(calls) // n)]
    se_top = [r.se_sum for _, rows, _ in calls[:n] for r in rows
              if r.ok and r.scheme == workload.top_scheme]
    print("report " + json.dumps({
        "workload": workload.name, "seed": args.seed, "calls": len(calls), "cells": cells,
        "passes": len(calls) / n, "wall_s": wall, "setup_samples_s": setup,
        "distinct_cells": len(per_cell), "tail_pct": tail_pct,
        "failed_share": ratio(failed, attempted),
        "pass_digest": digest(line for k in range(n) for line in first_pass[k]),
    }))
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {
            "setup_s": metric(statistics.median(setup), "s"),
            "cells_per_s": metric(statistics.median(pass_rates), "1/s"),
            "cell_p50_ms": metric(statistics.median(per_cell) * 1e3, "ms"),
            "cell_tail_ms": metric(tail_s * 1e3, "ms"),
            "se_sum_mean": metric(statistics.fmean(se_top) if se_top else 0.0, "bps/Hz"),
            "solved_share": metric(1.0 - ratio(failed, attempted), "share"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        },
    }


def untraced_pass(units):
    from mara_sim.harness import run_experiment
    start = perf_counter()
    rows = [row for spec in units for row in run_experiment(spec)]
    return perf_counter() - start, rows


def traced_pass(tracer, units):
    from mara_sim.harness import run_experiment
    with tracer.installed():
        start = perf_counter()
        rows = [row for spec in units
                for row in tracer.call("harness.run", run_experiment, spec)]
        wall = perf_counter() - start
    return wall, rows


def traced_run(workload, units, args) -> dict:
    from mara_sim.harness import run_experiment
    from tracing import Tracer, work_counters
    from workloads import first_cell, opening_cells

    os.environ["MARA_SIM_THREADS"] = str(workload.threads)
    run_experiment(first_cell(units))
    wall_a, rows_a = untraced_pass(units)
    concurrency = sum(r.wall_time for r in rows_a) / wall_a
    os.environ["MARA_SIM_THREADS"] = "1"
    wall_u, rows_u = untraced_pass(units) if workload.threads > 1 else (wall_a, rows_a)
    tracer, again = Tracer(), Tracer()
    wall_b, rows_b = traced_pass(tracer, units)
    _, rows_r = traced_pass(again, opening_cells(units))

    cells_b = by_cell(rows_b)
    bad = {cell for cell, _ in tracer.failures + again.failures}
    for other in (by_cell(rows_a), by_cell(rows_u), by_cell(rows_r)):
        bad.update(key for key, cell in other.items()
                   if [line for _, line in cell] != [line for _, line in cells_b.get(key, [])])
    counters = [(key, work_counters(counts)) for key, _, counts in tracer.cells]
    repeated = [(key, work_counters(counts)) for key, _, counts in again.cells]
    bad.update(key for (key, c), other in zip(counters, repeated) if (key, c) != other)

    schemes = units[0].schemes
    attempted = len(cells_b) * len(schemes)
    failed = sum(len(schemes) if key in bad else failed_solves(cell, schemes)
                 for key, cell in cells_b.items())
    totals = Counter()
    for (key, c), (_, seconds, _) in zip(counters, tracer.cells):
        totals.update(c)
        print("cell " + json.dumps({"seed": key[0], "total_power_w": key[1],
                                    "ms": seconds * 1e3, **c}))
    layer_self = sum(v[2] for name, v in tracer.layers.items() if name != "trace.check")
    print("report " + json.dumps({
        "workload": workload.name, "seed": args.seed, "cells": len(cells_b),
        "wall_threaded_s": wall_a, "wall_untraced_s": wall_u, "wall_traced_s": wall_b,
        "work_totals": totals, "failed_share": ratio(failed, attempted),
        "self_s": {name: v[2] for name, v in tracer.layers.items()},
        "failures": [msg for _, msg in tracer.failures + again.failures][:10],
        "pass_digest": digest(line for cell in cells_b.values() for _, line in cell),
    }))

    # Self times are gated as shares of the traced wall time: a layer that a
    # workload never calls then reads 0 as a share, not as a constant time.
    metrics = {}
    for layer in COUNTED_LAYERS:
        metrics[f"{layer}.calls"] = metric(tracer.calls(layer), "count")
        metrics[f"{layer}.self_share"] = metric(tracer.self_s(layer) / wall_b, "share")
    for layer in ("channel.tensor", "se.sum_se"):
        metrics[f"{layer}.mean_us"] = metric(
            ratio(tracer.self_s(layer) * 1e6, tracer.calls(layer)), "us")
    metrics["optim.ascent.candidates"] = metric(totals["ls_candidates"], "count")
    metrics["optim.evals_per_grad"] = metric(
        ratio(totals["ls_candidates"], totals["grad_evals"]), "ratio")
    converged = [c for _, scheme, c in tracer.solves if scheme != "TFA"]
    metrics["optim.outer_cap_share"] = metric(
        ratio(sum(not c for c in converged), len(converged)), "share")
    metrics["harness.self_share"] = metric(
        (tracer.self_s("harness.run") + tracer.self_s("harness.cell")) / wall_b, "share")
    metrics["harness.concurrency"] = metric(concurrency, "ratio")
    metrics["trace.wall_s"] = metric(wall_b, "s")
    metrics["trace.coverage_share"] = metric(layer_self / wall_b, "share")
    metrics["trace.overhead_share"] = metric(wall_b / wall_u - 1.0, "share")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to a few cells (for the smoke test)")
    args = parser.parse_args(argv)
    bench_env.pin_threads()
    try:
        bench_env.use_checkout_source()
    except bench_env.MissingSourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    units = workload.units(args.seed, args.smoke)
    print("env " + json.dumps(bench_env.environment_record(workload.threads)))
    try:
        result = (traced_run if args.trace else timed_run)(workload, units, args)
    finally:
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
