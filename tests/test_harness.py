import ast
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import mara_sim.harness as harness
from mara_sim.channel import ChannelWorkspace
from mara_sim.errors import ContractError, ValidationError
from mara_sim.harness import (ExperimentSpec, ResultRow, emit_csv,
                              emit_summary_csv, format_summary, iter_cells,
                              reference_experiment, run_experiment, summarize)
from mara_sim.optim import OptimOptions
from mara_sim.scenario import SCHEME_ORDER

from conftest import make_config

TINY = OptimOptions(max_outer_iters=2, inner_grad_iters=10, restarts=1,
                    tol_rel=1e-4, seed=0)


def tiny_spec(schemes=("TFA", "SMA", "ERA", "MARA"), seeds=(0,), sweep=None):
    base = make_config(num_subcarriers=2, num_bs_antennas=2, num_paths_per_ue=3,
                       shod_max_degree=1)
    return ExperimentSpec(base=base, seeds=seeds, schemes=schemes, sweep=sweep,
                          options=TINY)


def hand_row(seed, scheme, se, sweep_value=0.0, G=2):
    return ResultRow(seed, scheme, "none", sweep_value, se, se / G, 1, 0.01)


def test_single_seed_single_scheme_single_row():
    rows = run_experiment(tiny_spec(schemes=("TFA",)))
    assert len(rows) == 1
    assert rows[0].scheme == "TFA" and rows[0].ok


def test_row_grid_and_order_deterministic():
    spec = tiny_spec(schemes=("TFA", "SMA", "ERA", "MARA"), seeds=(0, 1, 2))
    rows = run_experiment(spec)
    assert len(rows) == 12
    expected = [(s, sch) for s in (0, 1, 2) for sch in ("TFA", "SMA", "ERA", "MARA")]
    assert [(r.seed, r.scheme) for r in rows] == expected
    again = run_experiment(spec)
    assert [(r.seed, r.scheme, r.se_sum) for r in rows] == \
           [(r.seed, r.scheme, r.se_sum) for r in again]


def test_rows_satisfy_nesting():
    rows = run_experiment(tiny_spec(seeds=(0, 1)))
    by_cell = {}
    for r in rows:
        by_cell.setdefault(r.seed, {})[r.scheme] = r.se_sum
    for cell in by_cell.values():
        assert cell["MARA"] >= cell["ERA"]
        assert cell["MARA"] >= cell["SMA"]
        assert cell["SMA"] >= cell["TFA"]
        assert cell["ERA"] >= cell["TFA"]
    assert not any(r.scheme == "nesting_violation" for r in rows)


def test_per_subcarrier_column_consistent():
    rows = run_experiment(tiny_spec(seeds=(3,)))
    for r in rows:
        assert r.se_per_subcarrier == pytest.approx(r.se_sum / 2, abs=1e-12)


def test_sweep_rows_and_values():
    spec = tiny_spec(schemes=("TFA",), seeds=(0, 1),
                     sweep=("total_power_w", (0.5, 1.0, 2.0)))
    rows = run_experiment(spec)
    assert len(rows) == 6
    assert [r.sweep_value for r in rows] == [0.5, 1.0, 2.0] * 2
    assert all(r.sweep_param == "total_power_w" for r in rows)
    # SE grows with the power budget for a fixed seed
    assert rows[0].se_sum < rows[1].se_sum < rows[2].se_sum


def test_spec_validation():
    with pytest.raises(ContractError):
        tiny_spec(seeds=())
    with pytest.raises(ContractError):
        tiny_spec(sweep=("total_power_w", (1.0, 1.0)))
    with pytest.raises(ContractError):
        tiny_spec(sweep=("noise_power_w", (1.0, 2.0)))
    with pytest.raises(ContractError):
        tiny_spec(schemes=("TFA", "XXX"))
    with pytest.raises(ContractError, match="seeds must not repeat"):
        tiny_spec(seeds=(0, 0))
    with pytest.raises(ContractError, match="schemes must not repeat"):
        tiny_spec(schemes=("TFA", "TFA"))
    with pytest.raises(ContractError, match="schemes must be nonempty"):
        tiny_spec(schemes=())


@pytest.mark.parametrize("sweep, error", [
    (("num_bs_antennas", (2, 4, 4.5)), ContractError),
    (("num_paths_per_ue", (2.5,)), ContractError),
    (("total_power_w", (0.5, math.inf)), ContractError),
    (("total_power_w", (math.nan,)), ContractError),
    (("num_bs_antennas", (1, 2)), ValidationError),
])
def test_spec_rejects_sweep_values_that_cannot_run(sweep, error):
    with pytest.raises(error):
        tiny_spec(sweep=sweep)


@pytest.mark.parametrize("sweep", [None, ("total_power_w", (0.5, 1.0))])
def test_spec_rejects_every_negative_seed(sweep):
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        tiny_spec(seeds=(0, -1), sweep=sweep)


def test_integral_float_sweep_values_run():
    rows = run_experiment(tiny_spec(schemes=("TFA",),
                                    sweep=("num_bs_antennas", (2.0, 3.0))))
    assert [(r.sweep_value, r.ok) for r in rows] == [(2.0, True), (3.0, True)]


def test_cell_builds_one_workspace(monkeypatch):
    built = []
    init = ChannelWorkspace.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(ChannelWorkspace, "__init__", counting_init)
    spec = dataclasses.replace(reference_experiment(num_seeds=1),
                               sweep=("total_power_w", (1.0,)))
    rows = run_experiment(spec)
    assert [r.scheme for r in rows] == ["TFA", "SMA", "ERA", "MARA"]
    assert len(built) == 1


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    content = path.read_bytes()
    assert content == (harness.CSV_HEADER + "\n").encode()


def test_emit_csv_one_row_two_lines(tmp_path):
    path = tmp_path / "one.csv"
    emit_csv([hand_row(1, "TFA", 2.5)], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == "1,TFA,none,0.0,2.5,1.25,1,0.01"


def test_emit_csv_reemission_byte_identical(tmp_path):
    rows = [hand_row(1, "TFA", 2.5), hand_row(1, "SMA", 3.25)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows, p1)
    emit_csv(rows, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()


def test_emit_csv_wall_time_flag(tmp_path):
    row = hand_row(1, "TFA", 2.5)
    p = tmp_path / "nowall.csv"
    emit_csv([row], p, include_wall_time=False)
    assert p.read_text().splitlines()[1].endswith(",0.0")


def test_emit_csv_flushes_each_row_before_taking_the_next(tmp_path):
    path, lines_on_disk = tmp_path / "stream.csv", []

    def rows():
        for seed in range(3):
            lines_on_disk.append(len(path.read_text().splitlines()))
            yield hand_row(seed, "TFA", 2.5)
    assert emit_csv(rows(), path) == [hand_row(seed, "TFA", 2.5) for seed in range(3)]
    assert lines_on_disk == [1, 2, 3]


def test_summarize_hand_rows_exact():
    rows = [hand_row(0, "TFA", 2.0), hand_row(1, "TFA", 4.0),
            hand_row(0, "MARA", 6.0, ), hand_row(1, "MARA", 10.0)]
    summary = summarize(rows)
    tfa = summary.per_scheme["TFA"]
    assert (tfa.mean, tfa.std, tfa.min) == (3.0, 1.0, 2.0)
    mara = summary.per_scheme["MARA"]
    assert (mara.mean, mara.std, mara.min) == (8.0, 2.0, 6.0)
    # per-cell ratios 3.0 and 2.5
    assert summary.mara_tfa_ratio == pytest.approx(2.75)


def test_summarize_identical_rows_zero_std():
    rows = [hand_row(s, "TFA", 5.0) for s in range(4)]
    assert summarize(rows).per_scheme["TFA"].std == 0.0


def test_summarize_tfa_only_reports_ratio_not_applicable():
    rows = [hand_row(0, "TFA", 5.0)]
    summary = summarize(rows)
    assert summary.mara_tfa_ratio is None
    assert any("not applicable" in n for n in summary.notices)
    assert any("missing" in n for n in summary.notices)
    text = format_summary(summary)
    assert "TFA" in text


def test_summary_csv_format(tmp_path):
    rows = [hand_row(0, "TFA", 2.0), hand_row(1, "TFA", 4.0)]
    path = tmp_path / "summary.csv"
    emit_summary_csv(summarize(rows), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "scheme,mean_se,std_se,min_se"
    assert lines[1] == "TFA,3.0,1.0,2.0"


def test_fault_hook_records_nesting_violation(monkeypatch):
    solve = harness.alternating_optimize

    def lowered_mara(ws, scheme, *args):
        result = solve(ws, scheme, *args)
        return dataclasses.replace(result, se_trace=[0.0]) if scheme == "MARA" else result
    monkeypatch.setattr(harness, "alternating_optimize", lowered_mara)
    rows = run_experiment(tiny_spec(seeds=(5,)))
    bad = [r for r in rows if r.scheme == "nesting_violation"]
    assert bad and not bad[0].ok
    assert math.isnan(bad[0].se_sum)


def test_error_in_scheme_yields_diagnostic_row(monkeypatch):
    def boom(*args):
        raise RuntimeError("injected failure")
    monkeypatch.setattr(harness, "alternating_optimize", boom)
    rows = run_experiment(tiny_spec(seeds=(6,)))
    assert len(rows) == 1
    assert not rows[0].ok and "injected failure" in rows[0].note


@pytest.mark.parametrize("workers", ["1", "2"])
def test_decreasing_trace_ends_its_cell_with_that_error_row(monkeypatch, workers):
    # The harness keeps no traces: `OptimResult` rejects a decrease when built.
    solve = harness.alternating_optimize

    def falling_sma(ws, scheme, *args):
        result = solve(ws, scheme, *args)
        if scheme != "SMA":
            return result
        return dataclasses.replace(result, se_trace=[result.se, result.se / 2])
    spec = tiny_spec(seeds=(0, 1))
    full = _without_wall(run_experiment(spec))
    monkeypatch.setattr(harness, "alternating_optimize", falling_sma)
    _two_workers(monkeypatch)
    monkeypatch.setenv("MARA_SIM_THREADS", workers)
    rows = _without_wall(run_experiment(spec))
    assert [(r.seed, r.scheme, r.ok) for r in rows] == [
        (seed, scheme, scheme == "TFA") for seed in (0, 1) for scheme in ("TFA", "SMA")]
    assert [r for r in rows if r.ok] == [r for r in full if r.scheme == "TFA"]
    assert [r.note for r in rows if not r.ok] == [
        f"error: se_trace is not nondecreasing: {[r.se_sum, r.se_sum / 2]}"
        for r in full if r.scheme == "SMA"]
    _assert_no_child_left()


def test_full_run_determinism_bytes(tmp_path):
    spec = tiny_spec(seeds=(0, 1), sweep=("total_power_w", (0.5, 1.0)))
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    emit_csv(run_experiment(spec), p1, include_wall_time=False)
    emit_csv(run_experiment(spec), p2, include_wall_time=False)
    assert p1.read_bytes() == p2.read_bytes()


def _without_wall(rows):
    return [dataclasses.replace(r, wall_time=0.0) for r in rows]


def _two_workers(monkeypatch) -> list:
    """Ask for 2 workers on any host; returns a list that counts the forks."""
    forks, fork = [], os.fork

    def counting_fork():
        forks.append(1)
        return fork()
    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("MARA_SIM_THREADS", "2")
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_setup_error_gives_the_cell_one_error_row(monkeypatch, workers):
    generate = harness.generate_scenario

    def failing_seed_1(config):
        if config.seed == 1:
            raise RuntimeError("no scenario")
        return generate(config)
    spec = tiny_spec(schemes=("SMA", "MARA"), seeds=(0, 1, 2))
    expected = _without_wall(r for r in run_experiment(spec) if r.seed != 1)
    monkeypatch.setattr(harness, "generate_scenario", failing_seed_1)
    forks = _two_workers(monkeypatch)
    monkeypatch.setenv("MARA_SIM_THREADS", workers)
    rows = run_experiment(spec)
    assert len(forks) == int(workers) - 1
    _assert_no_child_left()
    assert _without_wall(r for r in rows if r.seed != 1) == expected
    bad = [r for r in rows if r.seed == 1]
    # TFA, SMA's warm start, is the first scheme the cell would solve.
    assert [(r.scheme, r.ok, r.note) for r in bad] == [
        ("TFA", False, "error: set-up: no scenario")]
    assert math.isnan(bad[0].se_sum)


def _rows_and_csv(spec, tmp_path, name):
    rows = run_experiment(spec)
    path = tmp_path / f"{name}.csv"
    emit_csv(rows, path, include_wall_time=False)
    return _without_wall(rows), path.read_bytes()


def test_two_workers_give_the_rows_and_csv_of_one(monkeypatch, tmp_path):
    spec = tiny_spec(seeds=(0, 1, 2), sweep=("total_power_w", (0.5, 1.0)))
    one = _rows_and_csv(spec, tmp_path, "one")
    forks = _two_workers(monkeypatch)
    two = _rows_and_csv(spec, tmp_path, "two")
    assert len(forks) == 1 and len(one[0]) == 24
    assert one == two
    _assert_no_child_left()


def test_one_cell_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked for one cell")
    _two_workers(monkeypatch)
    monkeypatch.setattr(os, "fork", no_fork)
    rows = run_experiment(tiny_spec(schemes=("TFA",)))
    assert [r.ok for r in rows] == [True]
    _assert_no_child_left()


@pytest.mark.parametrize("raw", ["0", "-1", "two", "1.5", ""])
def test_bad_worker_count_raises_before_any_cell(monkeypatch, raw):
    def no_cell(*args):
        raise AssertionError("a cell ran")
    monkeypatch.setattr(harness, "_run_cell", no_cell)
    monkeypatch.setenv("MARA_SIM_THREADS", raw)
    with pytest.raises(ContractError, match="MARA_SIM_THREADS"):
        run_experiment(tiny_spec(seeds=(0, 1)))


def _in_child_only(monkeypatch, action):
    parent, solve = os.getpid(), harness._run_cell

    def cell(*args):
        if os.getpid() != parent:
            action()
        return solve(*args)
    monkeypatch.setattr(harness, "_run_cell", cell)
    _two_workers(monkeypatch)


def test_child_exception_is_raised_in_the_parent(monkeypatch):
    def boom():
        raise RuntimeError("cell failed in a worker")
    _in_child_only(monkeypatch, boom)
    with pytest.raises(RuntimeError, match="cell failed in a worker"):
        run_experiment(tiny_spec(schemes=("TFA",), seeds=(0, 1)))
    _assert_no_child_left()


def test_child_that_exits_without_results_names_its_status(monkeypatch):
    _in_child_only(monkeypatch, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="status 3"):
        run_experiment(tiny_spec(schemes=("TFA",), seeds=(0, 1)))
    _assert_no_child_left()


def test_child_that_sends_a_cut_payload_names_its_status(monkeypatch):
    parent, dumps = os.getpid(), harness.pickle.dumps

    def half(obj):
        data = dumps(obj)
        return data if os.getpid() == parent else data[:len(data) // 2]
    monkeypatch.setattr(harness.pickle, "dumps", half)
    _two_workers(monkeypatch)
    with pytest.raises(RuntimeError, match="status 0 without sending results") as raised:
        run_experiment(tiny_spec(schemes=("TFA",), seeds=(0, 1)))
    assert isinstance(raised.value.__cause__, harness.pickle.UnpicklingError)
    _assert_no_child_left()


def test_parent_error_kills_and_reaps_its_children(monkeypatch):
    parent, solve = os.getpid(), harness._run_cell

    def cell(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return solve(*args)
    monkeypatch.setattr(harness, "_run_cell", cell)
    _two_workers(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_experiment(tiny_spec(schemes=("TFA",), seeds=(0, 1)))
    assert time.perf_counter() - start < 30
    _assert_no_child_left()


def test_child_whose_second_frame_is_cut_names_its_status(monkeypatch):
    parent, dumps, frames = os.getpid(), harness.pickle.dumps, []

    def cut_second(obj):
        data = dumps(obj)
        if os.getpid() == parent:
            return data
        frames.append(data)  # the child's own copy of the list
        return data if len(frames) == 1 else data[:len(data) // 2]
    monkeypatch.setattr(harness.pickle, "dumps", cut_second)
    _two_workers(monkeypatch)
    cells = iter_cells(tiny_spec(schemes=("TFA",), seeds=(0, 1, 2, 3)))
    # Cells 0 and 2 are the caller's; 1 and 3 are the child's first and second frames.
    assert [rows[0].seed for rows in itertools.islice(cells, 3)] == [0, 1, 2]
    with pytest.raises(RuntimeError, match="status 0 without sending results") as raised:
        next(cells)
    assert isinstance(raised.value.__cause__, harness.pickle.UnpicklingError)
    _assert_no_child_left()


def test_closing_the_stream_after_one_cell_leaves_no_child(monkeypatch):
    _in_child_only(monkeypatch, lambda: time.sleep(60))
    start = time.perf_counter()
    cells = iter_cells(tiny_spec(schemes=("TFA",), seeds=(0, 1, 2)))
    assert [r.seed for r in next(cells)] == [0]
    cells.close()
    assert time.perf_counter() - start < 30
    _assert_no_child_left()


def test_cells_stream_in_cell_order(monkeypatch):
    spec = tiny_spec(schemes=("TFA", "MARA"), seeds=(0, 1, 2),
                     sweep=("total_power_w", (0.5, 1.0)))
    _two_workers(monkeypatch)
    cells = list(iter_cells(spec))
    assert [[(r.seed, r.sweep_value, r.scheme) for r in rows] for rows in cells] == [
        [(seed, value, "TFA"), (seed, value, "MARA")]
        for seed in (0, 1, 2) for value in (0.5, 1.0)]
    _assert_no_child_left()


FORK_WITH_BLAS_THREADS = """
import dataclasses, os, mara_sim
spec = dataclasses.replace(mara_sim.reference_experiment(num_seeds=2),
                           sweep=("total_power_w", (0.5, 1.0)))
def rows(workers):
    os.environ["MARA_SIM_THREADS"] = workers
    return [dataclasses.replace(r, wall_time=0.0) for r in mara_sim.run_experiment(spec)]
one, threads, fork = rows("1"), [], os.fork
def counting_fork():
    threads.append(len(os.listdir("/proc/self/task")))
    return fork()
os.fork = counting_fork
print((threads, rows("2") == one))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc/self/task and 2 usable CPUs")
def test_fork_after_blas_started_its_threads_gives_the_rows_of_one_worker():
    # OpenBLAS starts its pool at `import numpy` unless these pin it; its fork
    # handler stops the pool, and a child runs only numpy and pickle.
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(harness.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", FORK_WITH_BLAS_THREADS], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    threads, same_rows = ast.literal_eval(out.stdout)
    assert same_rows and len(threads) == 1 and threads[0] >= 2


def test_a_cell_whose_snr_overflows_a_double_names_the_noise_power():
    # At 1e-310 W every SNR lies beyond a double. The row names that cause, and
    # no overflow warning (an error under the test suite's filter) comes first.
    spec = reference_experiment(num_seeds=1)
    spec = dataclasses.replace(spec, sweep=None,
                               base=dataclasses.replace(spec.base, noise_power_w=1e-310))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = run_experiment(spec)
    assert [(r.scheme, r.ok, r.note) for r in rows] == [
        ("TFA", False, "error: noise_power_w=1e-310 overflows the SNR at subcarrier 0")]


@pytest.mark.parametrize("noise", [1e-200, 1e-300], ids=["1e-200", "1e-300"])
def test_a_reference_cell_at_extreme_snr_solves_without_a_warning(noise):
    # The gradients follow the SNR, about 1e300 at 1e-300 W: their squares, and a
    # pattern step's, lie beyond a double. Every scheme still solves, with no
    # overflow warning (an error under the test suite's filter).
    spec = reference_experiment(num_seeds=1)
    spec = dataclasses.replace(spec, sweep=None,
                               base=dataclasses.replace(spec.base, noise_power_w=noise))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = run_experiment(spec)
    assert [(r.scheme, r.ok, r.note) for r in rows] == [(s, True, "") for s in SCHEME_ORDER]
    se = {r.scheme: r.se_sum for r in rows}
    assert se["TFA"] <= min(se["SMA"], se["ERA"]) and max(se["SMA"], se["ERA"]) <= se["MARA"]
