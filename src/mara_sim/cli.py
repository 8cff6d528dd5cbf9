"""Command-line entry point: run experiments, self-check invariants, run oracles.

Exit codes: 0 success, 1 error (bad usage, bad config, runtime failure),
2 ordering-assertion failure during a run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import checks, harness
from .errors import ConfigError, ContractError, SizeLimitError
from .scenario import (_OPTIONAL_KEYS, _REQUIRED_KEYS, SystemConfig, generate_scenario,
                       load_config)
from .shod import build_basis
from .channel import ChannelWorkspace
from .optim import OptimOptions, _zero_forcing

# The override keys each command reads beside the config's: any other is unknown.
_TOOL_KEYS = {"run": (), "check": (), "oracle": ("grid_step",)}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mara-sim",
                     description="Downlink MIMO-OFDM simulator for movable / "
                                 "pattern-reconfigurable antenna schemes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("run", "run an experiment and write CSV results"),
                       ("check", "run the invariant self-check suites"),
                       ("oracle", "compare optimizers against brute-force oracles")):
        p = sub.add_parser(name, description=desc)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (repeatable)")
        if name != "oracle":
            p.add_argument("-q", "--quiet", action="store_true")
        if name == "run":
            p.add_argument("--out", default=".", help="output directory")
            p.add_argument("--seeds", default=None, help="comma-separated seed list")
            p.add_argument("--json-summary", action="store_true")
    return parser


def _parse_value(raw: str):
    """An int, else a float, else the string itself, for `SystemConfig` to name."""
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(raw)
    return raw


def _parse_overrides(pairs, tool_keys):
    config_updates, tool_updates = {}, {}
    for pair in pairs:
        if "=" not in pair:
            raise ContractError(f"override {pair!r} is not of the form key=value")
        key, raw = pair.split("=", 1)
        key, value = key.strip(), _parse_value(raw)
        if key in tool_keys:
            # float_info.max, not inf: an int above it would overflow float().
            if isinstance(value, str) or not 0.0 < value <= sys.float_info.max:
                raise ContractError(f"{key} must be finite and > 0, got {raw!r}")
            tool_updates[key] = float(value)
        elif key not in _REQUIRED_KEYS + _OPTIONAL_KEYS:
            raise ContractError(f"unknown override key: {key}")
        elif key == "schemes":
            config_updates[key] = [s.strip() for s in raw.split(",") if s.strip()]
        else:
            config_updates[key] = value
    return config_updates, tool_updates


def _load_base_config(args, default: SystemConfig | None):
    updates, tool = _parse_overrides(args.overrides, _TOOL_KEYS[args.command])
    if args.config is None and default is None:
        raise ContractError("--config is required for this command")
    base = load_config(args.config) if args.config is not None else default
    return replace(base, **updates), tool


def cmd_run(args) -> int:
    base, _ = _load_base_config(args, default=None)
    seeds = _parse_seeds(args.seeds) if args.seeds else (base.seed,)
    spec = harness.ExperimentSpec(base=base, seeds=seeds, schemes=base.schemes)
    results_path = os.path.join(args.out, "results.csv")
    summary_path = os.path.join(args.out, "summary.csv")
    # Built before --out, so a bad MARA_SIM_THREADS leaves no file behind.
    with contextlib.closing(harness.iter_cells(spec)) as cells:  # rows on disk as cells end
        os.makedirs(args.out, exist_ok=True)
        rows = harness.emit_csv((row for rows in cells for row in rows), results_path)
    nesting_failures = [r for r in rows if not r.ok and r.scheme == "nesting_violation"]
    errors = [r for r in rows if not r.ok and r.scheme != "nesting_violation"]
    for r in errors:  # before summarize, which raises when no row succeeded
        print(f"cell failed: {r.note}", file=sys.stderr)
    summary = harness.summarize(rows, schemes=base.schemes)
    harness.emit_summary_csv(summary, summary_path)
    if args.json_summary:
        payload = {s: vars(st) for s, st in summary.per_scheme.items()}
        payload["mara_tfa_ratio"] = summary.mara_tfa_ratio
        print(json.dumps(payload, sort_keys=True))
    elif not args.quiet:
        print(harness.format_summary(summary))
        print(f"wrote {results_path} and {summary_path}")
    for r in nesting_failures:
        print(f"nesting assertion failed: {r.note}", file=sys.stderr)
    return 2 if nesting_failures else 1 if errors else 0


def _check_default_config() -> SystemConfig:
    return replace(harness.reference_config(seed=7), num_subcarriers=2,
                   num_bs_antennas=2, num_paths_per_ue=3, max_delay_s=1e-7,
                   noise_power_w=1e-2)


def cmd_check(args) -> int:
    base, _ = _load_base_config(args, default=_check_default_config())
    results = []

    def record(name, passed, detail):
        results.append(passed)
        if not args.quiet or not passed:
            print(f"{'PASS' if passed else 'FAIL'} {name} ({detail})")

    degree = base.shod_max_degree
    worst = checks.orthonormality_error(degree)
    record("orthonormality", worst < 1e-8, f"max |Gram - I| = {worst:.3e}, N <= {degree}")

    rng = np.random.default_rng(base.seed)
    worst = checks.parseval_error(build_basis(degree), rng)
    record("parseval", worst < 1e-8, f"max |power - ||a||^2| = {worst:.3e}")

    scenario = generate_scenario(base)
    worst = checks.factorization_error(scenario, checks.random_feasible_state(scenario, rng))
    record("factorization", worst < 1e-12, f"max |h - q^H a| = {worst:.3e}")

    orders = []
    for trial in range(5):  # ZF of another state: at its own, the fixed-precoder SE is not smooth
        ws = ChannelWorkspace(generate_scenario(replace(base, seed=base.seed + trial)))
        state, other = (checks.random_feasible_state(ws, rng) for _ in range(2))
        orders += [checks.taylor_order(r, floor) for r, floor, _ in
                   checks.taylor_remainders(ws, state, _zero_forcing(ws, other)[0], rng)]
    worst = float(np.min(orders))
    record("gradients", worst > 1.6, f"min Taylor order = {worst:.3f} over 5 states x 2 blocks")

    return 0 if all(results) else 1


def cmd_oracle(args) -> int:
    base, tool = _load_base_config(args, default=_oracle_default_config())
    grid_step = tool.get("grid_step", base.antenna_spacing / 40.0)
    opts = OptimOptions(restarts=4, seed=123)
    try:
        gap_pos = np.max([checks.position_oracle_gap(
            generate_scenario(replace(base, seed=base.seed + trial)), opts, grid_step)
            for trial in range(3)])
    except SizeLimitError as exc:
        print(f"oracle aborted: {exc}", file=sys.stderr)
        return 1
    gap_pat = np.max([checks.pattern_oracle_gap(generate_scenario(
        replace(base, num_subcarriers=1, seed=base.seed + 100 + trial)), opts)
        for trial in range(3)])
    print(f"max relative SE gap, positions vs grid: {max(gap_pos, 0.0):.3e}")
    print(f"max relative gap, patterns vs eigenvector: {max(gap_pat, 0.0):.3e}")
    return 0 if np.isfinite(gap_pos) and np.isfinite(gap_pat) else 1


def _oracle_default_config() -> SystemConfig:
    return replace(harness.reference_config(seed=11), num_subcarriers=1, num_ues=1,
                   num_bs_antennas=1, num_paths_per_ue=2, max_delay_s=0.0,
                   noise_power_w=1e-2)


def _parse_seeds(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in raw.split(",") if s.strip())
    except ValueError:
        raise ContractError(f"--seeds must be a comma-separated integer list, got {raw!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "check":
            return cmd_check(args)
        return cmd_oracle(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
