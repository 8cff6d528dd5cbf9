#!/usr/bin/env python3
"""Quality against optimisation budget: an opt-in report, not gated.

    python3 perfbench/budget_report.py [--seed N]

Runs the first four scenario seeds of the `ref_sweep` workload (all five
power points and all four schemes) single-threaded, at every
`max_outer_iters` in {2, 4, 8} and `restarts` in {1, 2, 4}, the other
reference options unchanged. For each setting it prints the mean se_sum per
scheme, `outer_cap_share` (the share of non-TFA solves that stop at the
`max_outer_iters` cap instead of on tolerance) and the traced wall time.
The last line repeats the table as JSON. It takes about a minute on a
2-core x86 machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
from dataclasses import replace
from time import perf_counter

import bench_env

OUTER_ITERS = (2, 4, 8)
RESTARTS = (1, 2, 4)
SAMPLE_SEEDS = 4


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    bench_env.pin_threads()
    bench_env.use_checkout_source()
    from mara_sim import SCHEME_ORDER
    from mara_sim.harness import run_experiment
    from tracing import Tracer
    from workloads import WORKLOADS

    os.environ["MARA_SIM_THREADS"] = "1"
    print("env " + json.dumps(bench_env.environment_record(1)))
    (spec,) = WORKLOADS["ref_sweep"].units(args.seed)
    spec = replace(spec, seeds=spec.seeds[:SAMPLE_SEEDS])
    print(f"{'outer':>5} {'restarts':>8} " + " ".join(f"{s:>9}" for s in SCHEME_ORDER)
          + f" {'cap_share':>9} {'wall_s':>7}")
    table = []
    for outer in OUTER_ITERS:
        for restarts in RESTARTS:
            options = replace(spec.options, max_outer_iters=outer, restarts=restarts)
            tracer = Tracer()
            with tracer.installed():
                start = perf_counter()
                rows = run_experiment(replace(spec, options=options))
                wall = perf_counter() - start
            mean_se = {s: statistics.fmean(r.se_sum for r in rows if r.ok and r.scheme == s)
                       for s in SCHEME_ORDER}
            capped = [not c for _, scheme, c in tracer.solves if scheme != "TFA"]
            entry = {"max_outer_iters": outer, "restarts": restarts, "mean_se": mean_se,
                     "outer_cap_share": sum(capped) / len(capped), "wall_s": wall,
                     "failed_rows": sum(not r.ok for r in rows),
                     "failed_checks": len(tracer.failures)}
            table.append(entry)
            print(f"{outer:>5} {restarts:>8} "
                  + " ".join(f"{mean_se[s]:>9.4f}" for s in SCHEME_ORDER)
                  + f" {entry['outer_cap_share']:>9.3f} {wall:>7.2f}", flush=True)
    print(json.dumps({"seed": args.seed, "scenario_seeds": list(spec.seeds), "table": table}))


if __name__ == "__main__":
    main()
