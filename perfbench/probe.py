"""Set-up probe: import mara_sim and finish the workload's first cell, untimed.

`run.py` times this script from outside, in a fresh interpreter, as one
sample of `setup_s`:

    python3 perfbench/probe.py --workload NAME --seed N [--smoke]
"""

from __future__ import annotations

import argparse
import os

import bench_env


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    bench_env.pin_threads()
    bench_env.use_checkout_source()
    from mara_sim.harness import run_experiment
    from workloads import WORKLOADS, first_cell

    workload = WORKLOADS[args.workload]
    os.environ["MARA_SIM_THREADS"] = str(workload.threads)
    run_experiment(first_cell(workload.units(args.seed, args.smoke)))


if __name__ == "__main__":
    main()
