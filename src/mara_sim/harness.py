"""Multi-seed, multi-scheme experiment runner with CSV emission.

Cells (seed, sweep value) are independent pure computations; within a cell the
schemes are solved in nesting order so warm starts can be shared. After each
cell the scheme-ordering assertions are evaluated and any violation is
recorded as a failure row rather than aborting the run. An error in one scheme
ends its cell with a diagnostic row after the rows already solved; an error
while building the cell's scenario or workspace gives the cell one error row.

`MARA_SIM_THREADS` (default 1; the name is the benchmark's) counts processes:
threads contending for the interpreter lock made a sweep slower. With N > 1
the caller forks N - 1 children (POSIX only) and deals the cells round-robin,
solving cells 0, N, 2N, ... itself. A child pickles each cell's rows to its
pipe as soon as it is solved, and `iter_cells` yields rows in cell order
whatever N is; `wall_time` is a row's solve time in the process that solved
it. The caller forks although OpenBLAS may have started threads: its fork
handler stops its pool, and a child runs only numpy and pickle before
`os._exit`. (Python 3.12 warns of any fork in a process with threads.)
Children run on their own copy of the modules, so a tracer that patches
module attributes needs `MARA_SIM_THREADS=1`, and the caller's `ru_maxrss`
does not include them.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import signal
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .scenario import _INT_KEYS, SCHEME_ORDER, SystemConfig, generate_scenario
from .channel import ChannelWorkspace
from .optim import WARM_STARTS, OptimOptions, alternating_optimize

SWEEPABLE_PARAMS = ("total_power_w", "num_bs_antennas", "num_paths_per_ue",
                    "shod_max_degree")

CSV_HEADER = ("seed,scheme,sweep_param,sweep_value,se_sum_bps_hz,"
              "se_per_sc_bps_hz,iterations,wall_time_s")


@dataclass(frozen=True)
class ExperimentSpec:
    base: SystemConfig
    seeds: tuple[int, ...]
    schemes: tuple[str, ...]
    sweep: tuple[str, tuple[float, ...]] | None = None
    options: OptimOptions = field(default_factory=OptimOptions)

    def __post_init__(self):
        for name in ("seeds", "schemes"):
            items = getattr(self, name)
            if not items:
                raise ContractError(f"{name} must be nonempty")
            if len(set(items)) != len(items):
                raise ContractError(f"{name} must not repeat")
        unknown = set(self.schemes) - set(SCHEME_ORDER)
        if unknown:
            raise ContractError(f"unknown scheme(s) {sorted(unknown)}")
        values = (None,)
        if self.sweep is not None:
            name, values = self.sweep
            if name not in SWEEPABLE_PARAMS:
                raise ContractError(f"sweep parameter {name!r} not in {SWEEPABLE_PARAMS}")
            if not values or any(b <= a for a, b in zip(values, values[1:])):
                raise ContractError("sweep values must be strictly increasing")
            for value in values:
                if not math.isfinite(value) or (name in _INT_KEYS and value != int(value)):
                    raise ContractError(f"sweep value {value!r} is not a valid {name}")
        for seed in self.seeds:
            for value in values:
                _cell_config(self, seed, value)  # raises on an infeasible cell


@dataclass
class ResultRow:
    seed: int
    scheme: str
    sweep_param: str
    sweep_value: float
    se_sum: float
    se_per_subcarrier: float
    iterations: int
    wall_time: float
    ok: bool = True
    note: str = ""


def _cell_config(spec: ExperimentSpec, seed: int, sweep_value) -> SystemConfig:
    """The base config at this seed and sweep value, with every scheme for the
    warm starts; raises ValidationError, from `replace`, on an infeasible cell."""
    updates = {"seed": seed, "schemes": tuple(SCHEME_ORDER)}
    if spec.sweep is not None:
        name = spec.sweep[0]
        updates[name] = int(sweep_value) if name in _INT_KEYS else sweep_value
    return dataclasses.replace(spec.base, **updates)


def _run_cell(spec: ExperimentSpec, seed: int, sweep_value) -> list[ResultRow]:
    """Solve one cell; returns its rows."""
    sweep_param = spec.sweep[0] if spec.sweep is not None else "none"
    value = float(sweep_value) if sweep_value is not None else 0.0

    def make_row(scheme, se_sum=math.nan, iterations=0, wall=0.0, ok=True, note=""):
        per_sc = se_sum / config.num_subcarriers if math.isfinite(se_sum) else math.nan
        return ResultRow(seed, scheme, sweep_param, value, se_sum, per_sc,
                         iterations, wall, ok, note)

    config = _cell_config(spec, seed, sweep_value)
    # Solve in nesting order so later schemes reuse converged warm starts.
    needed = set(spec.schemes)
    for scheme in reversed(SCHEME_ORDER):
        if scheme in needed:
            needed.update(WARM_STARTS[scheme])
    try:
        ws = ChannelWorkspace(generate_scenario(config))
    except Exception as exc:  # an error row for this cell, not the run
        first = next(s for s in SCHEME_ORDER if s in needed)
        return [make_row(first, ok=False, note=f"error: set-up: {exc}")]
    warm, rows, error = {}, {}, []
    for scheme in SCHEME_ORDER:
        if scheme not in needed:
            continue
        start = time.perf_counter()
        try:
            result = alternating_optimize(ws, scheme, spec.options, warm)
        except Exception as exc:  # diagnostic row ends the cell, not the run
            error.append(make_row(scheme, ok=False, note=f"error: {exc}"))
            break
        warm[scheme] = result
        rows[scheme] = make_row(scheme, result.se, result.iterations,
                                time.perf_counter() - start)
    out = [rows[s] for s in spec.schemes if s in rows] + error
    for lo, hi in ((lo, hi) for hi in SCHEME_ORDER for lo in WARM_STARTS[hi]):
        if lo in rows and hi in rows and rows[hi].se_sum < rows[lo].se_sum:
            out.append(make_row(
                "nesting_violation", ok=False,
                note=f"{hi} se {rows[hi].se_sum!r} < {lo} se {rows[lo].se_sum!r}"))
    return out


def _worker_count(cells: int) -> int:
    raw = os.environ.get("MARA_SIM_THREADS", "1")
    if not raw.isdecimal() or int(raw) < 1:
        raise ContractError(f"MARA_SIM_THREADS must be an integer >= 1, got {raw!r}")
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(int(raw), cells, cpus or 1)


def _child(spec, cells, fd):
    """Solve a child's cells, writing each one's rows, or the exception that
    ended them, as one pickle as soon as it is solved; then exit."""
    status = 1
    try:
        with open(fd, "wb") as pipe:
            try:
                for cell in cells:
                    pipe.write(pickle.dumps((True, _run_cell(spec, *cell))))
                    pipe.flush()
            except BaseException as exc:
                pipe.write(pickle.dumps((False, exc)))
        status = 0
    finally:
        os._exit(status)


def iter_cells(spec: ExperimentSpec):
    """An iterator over the rows of every (seed, sweep value) cell, in cell order.

    `MARA_SIM_THREADS` processes share the cells, capped at the cell count and
    the usable CPUs (see the module docstring); a bad count raises here, at the
    call. A child's cell is read from its pipe when that cell comes up. A
    child's exception is raised again by the iterator, and no child outlives
    it: closing it early kills and reaps them.
    """
    values = list(spec.sweep[1]) if spec.sweep is not None else [None]
    cells = [(seed, value) for seed in spec.seeds for value in values]
    return _stream_cells(spec, cells, _worker_count(len(cells)))


def _stream_cells(spec, cells, workers):
    children = {}  # worker index -> (pid, buffered read end)
    try:
        for start in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _child(spec, cells[start::workers], write_fd)
            os.close(write_fd)
            children[start] = (pid, open(read_fd, "rb"))
        for k, cell in enumerate(cells):
            if k % workers == 0:
                yield _run_cell(spec, *cell)
                continue
            pid, pipe = children[k % workers]
            try:
                ok, payload = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError) as exc:  # empty or cut short
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                children.pop(k % workers)[1].close()  # reaped: kill and wait no more
                raise RuntimeError(f"a worker exited with status {status}"
                                   f" without sending results") from exc
            if not ok:
                raise payload
            yield payload
    except BaseException:
        for pid, _ in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.waitpid(pid, 0)


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Every cell's rows, in cell order (see `iter_cells`)."""
    return [row for rows in iter_cells(spec) for row in rows]


def emit_csv(rows, path, include_wall_time: bool = True) -> list[ResultRow]:
    """Write rows from any iterable as CSV with LF endings and shortest
    round-trip floats, line-buffered so each row is flushed as it is written;
    returns the rows.

    With include_wall_time=False the wall-time column is written as 0.0, which
    makes repeated runs byte-identical for determinism comparisons.
    """
    written = []
    with open(path, "w", encoding="utf-8", newline="", buffering=1) as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            wall = r.wall_time if include_wall_time else 0.0
            fh.write(",".join([
                str(r.seed), r.scheme, r.sweep_param, repr(float(r.sweep_value)),
                repr(float(r.se_sum)), repr(float(r.se_per_subcarrier)),
                str(r.iterations), repr(float(wall)),
            ]) + "\n")
            written.append(r)
    return written


@dataclass
class SchemeStats:
    mean: float
    std: float
    min: float
    count: int


@dataclass
class Summary:
    per_scheme: dict[str, SchemeStats]
    mara_tfa_ratio: float | None
    notices: list[str]


def summarize(rows, schemes=SCHEME_ORDER) -> Summary:
    """Per-scheme aggregates of se_sum plus the mean per-cell MARA/TFA ratio."""
    good = [r for r in rows if r.ok and math.isfinite(r.se_sum)]
    if not good:
        raise ContractError("summarize requires at least one successful row")
    per_scheme = {}
    notices = []
    for scheme in schemes:
        values = np.array([r.se_sum for r in good if r.scheme == scheme])
        if values.size == 0:
            notices.append(f"scheme {scheme} missing from results; omitted")
            continue
        per_scheme[scheme] = SchemeStats(float(values.mean()), float(values.std()),
                                         float(values.min()), int(values.size))
    by_cell = {}
    for r in good:
        by_cell.setdefault((r.seed, r.sweep_value), {})[r.scheme] = r.se_sum
    ratios = [cell["MARA"] / cell["TFA"] for cell in by_cell.values()
              if "MARA" in cell and "TFA" in cell and cell["TFA"] > 0]
    ratio = float(np.mean(ratios)) if ratios else None
    if ratio is None:
        notices.append("MARA/TFA ratio not applicable (need both schemes)")
    return Summary(per_scheme, ratio, notices)


def format_summary(summary: Summary) -> str:
    lines = [f"{'scheme':<8} {'mean_se':>12} {'std_se':>12} {'min_se':>12} {'rows':>6}"]
    for scheme, st in summary.per_scheme.items():
        lines.append(f"{scheme:<8} {st.mean:>12.6f} {st.std:>12.6f} "
                     f"{st.min:>12.6f} {st.count:>6d}")
    if summary.mara_tfa_ratio is not None:
        lines.append(f"mean MARA/TFA SE ratio: {summary.mara_tfa_ratio:.4f}")
    lines += [f"note: {note}" for note in summary.notices]
    return "\n".join(lines)


def emit_summary_csv(summary: Summary, path) -> None:
    lines = ["scheme,mean_se,std_se,min_se"]
    for scheme, st in summary.per_scheme.items():
        lines.append(f"{scheme},{st.mean!r},{st.std!r},{st.min!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_config(seed: int = 0) -> SystemConfig:
    """The artifact's reference configuration for the four-scheme comparison."""
    return SystemConfig(carrier_frequency_hz=3.5e9, num_subcarriers=8,
                        subcarrier_spacing_hz=120e3, num_ues=2, num_bs_antennas=4,
                        num_paths_per_ue=6, max_delay_s=1e-6, total_power_w=1.0,
                        noise_power_w=2e-3, shod_max_degree=2, seed=seed)


def reference_experiment(num_seeds: int = 20) -> ExperimentSpec:
    """Reference experiment: a 5-point transmit-power sweep over seeded scenarios."""
    return ExperimentSpec(
        base=reference_config(),
        seeds=tuple(range(num_seeds)),
        schemes=SCHEME_ORDER,
        sweep=("total_power_w", (0.0625, 0.125, 0.25, 0.5, 1.0)),
        options=OptimOptions(max_outer_iters=4, inner_grad_iters=40,
                             restarts=2, tol_rel=1e-4),
    )
