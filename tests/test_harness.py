import dataclasses
import math
import os
import time

import numpy as np
import pytest

import mara_sim.harness as harness
from mara_sim.channel import ChannelWorkspace
from mara_sim.errors import ContractError, ValidationError
from mara_sim.harness import (ExperimentSpec, ResultRow, emit_csv,
                              emit_summary_csv, format_summary, reference_experiment,
                              run_experiment, summarize)
from mara_sim.optim import OptimOptions

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
        assert cell["MARA"] >= cell["ERA"] - 1e-9
        assert cell["MARA"] >= cell["SMA"] - 1e-9
        assert cell["SMA"] >= cell["TFA"] - 1e-9
        assert cell["ERA"] >= cell["TFA"] - 1e-9
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


def test_full_run_determinism_bytes(tmp_path):
    spec = tiny_spec(seeds=(0, 1), sweep=("total_power_w", (0.5, 1.0)))
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    emit_csv(run_experiment(spec), p1, include_wall_time=False)
    emit_csv(run_experiment(spec), p2, include_wall_time=False)
    assert p1.read_bytes() == p2.read_bytes()


def test_trace_sink_collects_monotone_traces():
    sink = []
    run_experiment(tiny_spec(seeds=(7,)), trace_sink=sink)
    assert sink, "expected traces"
    for _, _, _, trace in sink:
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


def test_trace_sink_keeps_cell_and_scheme_order():
    spec = tiny_spec(seeds=(0, 1, 2), sweep=("total_power_w", (0.5, 1.0)))
    sink = []
    run_experiment(spec, trace_sink=sink)
    cells = [(seed, value) for seed in (0, 1, 2) for value in (0.5, 1.0)]
    assert [entry[:3] for entry in sink] == [
        (seed, value, scheme) for seed, value in cells
        for scheme in ("TFA", "SMA", "ERA", "MARA")]


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


def _csv_and_traces(spec, tmp_path, name):
    sink = []
    rows = run_experiment(spec, trace_sink=sink)
    path = tmp_path / f"{name}.csv"
    emit_csv(rows, path, include_wall_time=False)
    return _without_wall(rows), path.read_bytes(), sink


def test_two_workers_give_the_rows_csv_and_traces_of_one(monkeypatch, tmp_path):
    spec = tiny_spec(seeds=(0, 1, 2), sweep=("total_power_w", (0.5, 1.0)))
    one = _csv_and_traces(spec, tmp_path, "one")
    forks = _two_workers(monkeypatch)
    two = _csv_and_traces(spec, tmp_path, "two")
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
