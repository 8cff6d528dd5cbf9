import dataclasses
import json
import time

import numpy as np
import pytest

import mara_sim.harness as harness
import mara_sim.optim as optim
from mara_sim import checks
from mara_sim.channel import AntennaState
from mara_sim.cli import main
from mara_sim.errors import SingularChannelError

from conftest import write_config
from test_harness import _assert_no_child_left, _two_workers


def small_run_config(tmp_path):
    return write_config(
        tmp_path,
        num_subcarriers=2, num_bs_antennas=2, num_ues=2, num_paths_per_ue=3,
        shod_max_degree=1, seed=2,
    )


def test_run_writes_two_csvs(tmp_path, capsys):
    cfg = small_run_config(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "results.csv").exists()
    assert (out / "summary.csv").exists()
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == harness.CSV_HEADER
    assert len(lines) == 5  # header + 4 schemes x 1 seed
    assert "MARA/TFA" in capsys.readouterr().out


def test_run_seeds_flag(tmp_path):
    cfg = small_run_config(tmp_path)
    out = tmp_path / "out2"
    code = main(["run", "--config", str(cfg), "--out", str(out),
                 "--seeds", "0,1", "--set", "schemes=TFA,SMA",
                 "--set", "antenna_spacing_wavelengths=0.6", "-q"])
    assert code == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 5  # header + 2 schemes x 2 seeds


def test_run_bad_override_key_names_key(tmp_path, capsys):
    cfg = small_run_config(tmp_path)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 "--set", "carrier=1e9"])
    assert code == 1
    assert "carrier" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--seeds", "0,-1"], ["--set", "seed=-1"]])
def test_run_negative_seed_is_an_error(tmp_path, capsys, flags):
    cfg = small_run_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")] + flags) == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags, field", [(["--seeds", "0,0"], "seeds"),
                                          (["--set", "schemes=TFA,TFA"], "schemes")])
def test_run_repeated_seed_or_scheme_is_an_error(tmp_path, capsys, flags, field):
    cfg = small_run_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")] + flags) == 1
    assert f"error: {field} must not repeat" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_non_finite_override_is_an_error(tmp_path, capsys):
    cfg = small_run_config(tmp_path)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 "--set", "max_delay_s=nan"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: max_delay_s must be finite")


def test_run_integer_too_large_for_a_double_names_its_key(tmp_path, capsys):
    cfg = write_config(tmp_path, total_power_w=10 ** 400)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: total_power_w must be finite and > 0\n"


@pytest.mark.parametrize("key", ["num_paths_per_ue", "shod_max_degree"])
def test_check_rejects_a_count_too_large_to_index_by_key(key, capsys):
    # Unchecked, the first fails inside numpy without naming its key, and the
    # second never returns: the orthonormality check builds every degree to it.
    start = time.perf_counter()
    assert main(["check", "--set", f"{key}={10 ** 23}"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} is too large")
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("command, override, message", [
    ("run", "num_ues=abc", "num_ues must be an integer"),
    ("run", "num_ues=2.5", "num_ues must be an integer"),
    ("run", "total_power_w=x", "total_power_w must be a number"),
    ("run", f"total_power_w={10 ** 400}", "total_power_w must be finite and > 0"),
    ("oracle", "grid_step=x", "grid_step must be finite and > 0, got 'x'"),
    ("oracle", f"grid_step={10 ** 400}", f"grid_step must be finite and > 0, got '{10 ** 400}'"),
], ids=["int-word", "int-fraction", "float-word", "float-huge-int", "grid_step-word",
        "grid_step-huge-int"])
def test_override_that_does_not_parse_names_its_key(command, override, message,
                                                    tmp_path, capsys):
    args = [command, "--set", override]
    if command == "run":
        args += ["--config", str(small_run_config(tmp_path)), "--out", str(tmp_path / "o")]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_run_missing_config(tmp_path, capsys):
    code = main(["run", "--out", str(tmp_path)])
    assert code == 1
    assert "--config" in capsys.readouterr().err


def test_run_nonexistent_config(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 1


def test_run_invalid_json_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ nope }")
    code = main(["run", "--config", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "line" in capsys.readouterr().err


def test_run_injected_nesting_violation_exits_two(tmp_path, capsys, monkeypatch):
    solve = harness.alternating_optimize

    def lowered_mara(ws, scheme, *args):
        result = solve(ws, scheme, *args)
        if scheme == "MARA":
            return dataclasses.replace(result, se_trace=[result.se * 0.1])
        return result
    monkeypatch.setattr(harness, "alternating_optimize", lowered_mara)
    cfg = small_run_config(tmp_path)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "y"), "-q"])
    assert code == 2
    assert "nesting" in capsys.readouterr().err


def test_run_error_in_mara_exits_one_and_keeps_rows(tmp_path, capsys, monkeypatch):
    solve = harness.alternating_optimize

    def boom_at_mara(ws, scheme, *args):
        if scheme == "MARA":
            raise RuntimeError("injected failure")
        return solve(ws, scheme, *args)
    monkeypatch.setattr(harness, "alternating_optimize", boom_at_mara)
    cfg = small_run_config(tmp_path)
    out = tmp_path / "e"
    code = main(["run", "--config", str(cfg), "--out", str(out), "-q"])
    assert code == 1
    assert "injected failure" in capsys.readouterr().err
    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
    # The three schemes solved before the failure keep their rows.
    assert [(row[1], row[4] != "nan") for row in rows] == [
        ("TFA", True), ("SMA", True), ("ERA", True), ("MARA", False)]


def test_run_error_in_every_cell_reports_its_cause(tmp_path, capsys, monkeypatch):
    def singular(ws, scheme, *args):
        raise SingularChannelError("channel matrix is singular at subcarrier 0")
    monkeypatch.setattr(harness, "alternating_optimize", singular)
    cfg = small_run_config(tmp_path)
    out = tmp_path / "s"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seeds", "0,1", "-q"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["cell failed: error: channel matrix is singular at subcarrier 0"] * 2 + [
        "error: summarize requires at least one successful row"]
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["0", "TFA"], ["1", "TFA"]]


def test_run_setup_error_exits_one_and_keeps_other_cells(tmp_path, capsys, monkeypatch):
    generate = harness.generate_scenario

    def failing_seed_1(config):
        if config.seed == 1:
            raise RuntimeError("no scenario")
        return generate(config)
    monkeypatch.setattr(harness, "generate_scenario", failing_seed_1)
    cfg = small_run_config(tmp_path)
    out = tmp_path / "u"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seeds", "0,1", "-q"]) == 1
    assert capsys.readouterr().err == "cell failed: error: set-up: no scenario\n"
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [
        ["0", s] for s in ("TFA", "SMA", "ERA", "MARA")] + [["1", "TFA"]]


@pytest.mark.parametrize("workers, interrupted", [("1", 2), ("2", 2), ("2", 3)],
                         ids=["one-worker", "caller-cell", "child-cell"])
def test_interrupted_run_keeps_the_cells_before_it(tmp_path, monkeypatch, workers,
                                                   interrupted):
    # With 2 workers the caller solves cells 0 and 2 and the child 1 and 3.
    solve = harness._run_cell

    def cell(spec, seed, sweep_value):
        if seed == interrupted:
            raise KeyboardInterrupt
        return solve(spec, seed, sweep_value)
    monkeypatch.setattr(harness, "_run_cell", cell)
    _two_workers(monkeypatch)
    monkeypatch.setenv("MARA_SIM_THREADS", workers)
    cfg = small_run_config(tmp_path)
    out = tmp_path / "k"
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--config", str(cfg), "--out", str(out), "--seeds", "0,1,2,3",
              "--set", "schemes=TFA,SMA", "-q"])
    _assert_no_child_left()
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == harness.CSV_HEADER
    assert [line.split(",")[:2] for line in lines[1:]] == [
        [str(seed), scheme] for seed in range(interrupted) for scheme in ("TFA", "SMA")]
    assert not (out / "summary.csv").exists()


def test_run_bad_worker_count_exits_one_before_creating_out(tmp_path, capsys,
                                                             monkeypatch):
    monkeypatch.setenv("MARA_SIM_THREADS", "0")
    out = tmp_path / "d"
    code = main(["run", "--config", str(small_run_config(tmp_path)), "--out", str(out)])
    assert code == 1
    assert "MARA_SIM_THREADS" in capsys.readouterr().err
    assert not out.exists()


def test_run_json_summary(tmp_path, capsys):
    cfg = small_run_config(tmp_path)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "z"),
                 "--json-summary"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "mara_tfa_ratio" in payload and "MARA" in payload


def test_check_default_passes(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    for suite in ("orthonormality", "parseval", "factorization", "gradients"):
        assert f"PASS {suite}" in out


# The default `check` and `oracle` stdout, pinned with numpy 2.4.6 and OpenBLAS
# 0.3.31 on x86-64 like the reference CSV; another BLAS or CPU may round some
# last digits differently.
PINNED_STDOUT = {
    "check": """\
PASS orthonormality (max |Gram - I| = 1.110e-15, N <= 2)
PASS parseval (max |power - ||a||^2| = 1.066e-14)
PASS factorization (max |h - q^H a| = 5.722e-17)
PASS gradients (min Taylor order = 1.999 over 5 states x 2 blocks)
""",
    "oracle": """\
max relative SE gap, positions vs grid: 0.000e+00
max relative gap, patterns vs eigenvector: 1.010e-12
""",
}


@pytest.mark.parametrize("command", PINNED_STDOUT)
def test_default_stdout_matches_its_pin(command, capsys):
    assert main([command]) == 0
    assert capsys.readouterr().out == PINNED_STDOUT[command]


def test_check_nan_gradient_fails(capsys, monkeypatch):
    monkeypatch.setattr(optim, "_grad_positions_all",
                        lambda ws, phases, *args: np.full((phases.shape[1], 3), np.nan))
    assert main(["check"]) == 1
    assert "FAIL gradients" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["_grad_positions_all", "_grad_patterns_all"])
def test_check_fails_a_gradient_off_by_one_part_in_1e3(name, capsys, monkeypatch):
    grad = getattr(optim, name)
    monkeypatch.setattr(optim, name, lambda *args: grad(*args) * (1.0 + 1e-3))
    assert main(["check"]) == 1
    assert "FAIL gradients" in capsys.readouterr().out


@pytest.mark.parametrize("overrides", [
    ["num_ues=1", "num_paths_per_ue=1"], ["noise_power_w=1e-12"], ["noise_power_w=1e-200"]],
    ids=["one-UE-one-path", "noise-1e-12", "noise-1e-200"])
def test_check_passes_correct_gradients_at_a_zero_gradient_and_at_high_snr(overrides, capsys):
    # On correct gradients, a relative error against central differences reads
    # 2.5e286 on the first and 0.61 on the second.
    assert main(["check"] + [arg for o in overrides for arg in ("--set", o)]) == 0
    assert "PASS gradients" in capsys.readouterr().out


def test_check_scores_each_block_of_a_trial_state_in_one_stacked_call(capsys, monkeypatch):
    shapes, sum_se = [], checks.sum_se
    monkeypatch.setattr(checks, "sum_se",
                        lambda h, *args: shapes.append(h.shape) or sum_se(h, *args))
    assert main(["check"]) == 0
    # 5 trial states x (positions, patterns), each f(x) and its 16 steps.
    assert [shape[0] for shape in shapes] == [1 + len(checks.TAYLOR_STEPS)] * 10


@pytest.mark.parametrize("command, key", [("oracle", "grid_step")])
@pytest.mark.parametrize("value", ["0", "-1e-6", "nan", "inf"])
def test_tool_step_must_be_finite_and_positive(command, key, value, capsys):
    assert main([command, "--set", f"{key}={value}"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be finite and > 0")


@pytest.mark.parametrize("argv, key", [
    (["check", "-q", "--set", "grid_step=0.5"], "grid_step"),
    (["oracle", "--set", "fd_step=0.5", "--set", "grid_step=0.005"], "fd_step"),
    (["run", "--set", "fd_step=1e-6"], "fd_step"),
    (["check", "--set", "fd_step=1e-6"], "fd_step")],
    ids=["check", "oracle", "run", "check-fd_step"])
def test_tool_key_of_another_command_is_unknown(argv, key, capsys):
    # Each command accepts only the tool key it reads; another one would be ignored.
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown override key: {key}\n"


def test_check_degree_six_orthonormality(capsys):
    assert main(["check", "--set", "shod_max_degree=6", "-q"]) == 0


def test_oracle_reports_small_gap(capsys):
    assert main(["oracle"]) == 0
    out = capsys.readouterr().out
    assert "positions vs grid" in out and "patterns vs eigenvector" in out


def test_oracle_grid_guard(capsys):
    code = main(["oracle", "--set", "grid_step=1e-9"])
    assert code == 1
    assert "guard" in capsys.readouterr().err


def test_oracle_nan_gap_exits_one(capsys, monkeypatch):
    def nan_patterns(ws, state, *args):
        return AntennaState(state.positions, np.full(state.coefficients.shape, np.nan),
                            state.scheme), np.nan
    monkeypatch.setattr(checks, "optimize_patterns", nan_patterns)
    assert main(["oracle", "--set", "grid_step=0.005"]) == 1
    out = capsys.readouterr().out
    assert "positions vs grid" in out and "patterns vs eigenvector: nan" in out


def test_oracle_deterministic_across_repeats(capsys):
    assert main(["oracle"]) == 0
    first = capsys.readouterr().out
    assert main(["oracle"]) == 0
    assert capsys.readouterr().out == first


def test_usage_error_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


@pytest.mark.parametrize("command, flag", [
    ("check", ["--out", "o"]), ("check", ["--seeds", "5"]), ("check", ["--json-summary"]),
    ("oracle", ["-q"]), ("oracle", ["--out", "o"]), ("oracle", ["--seeds", "9"]),
    ("oracle", ["--json-summary"])], ids=lambda v: v if isinstance(v, str) else v[0])
def test_flag_of_another_subcommand_is_a_usage_error(command, flag, capsys):
    assert main([command] + flag) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: unrecognized arguments: {flag[0]}")
