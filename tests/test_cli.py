import dataclasses
import json

import numpy as np
import pytest

import mara_sim.harness as harness
import mara_sim.optim as optim
from mara_sim import checks
from mara_sim.channel import AntennaState
from mara_sim.cli import main
from mara_sim.errors import SingularChannelError

from conftest import write_config


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


def test_check_coarse_fd_step_fails_gradients(capsys):
    code = main(["check", "--set", "fd_step=1e-1"])
    assert code == 1
    assert "FAIL gradients" in capsys.readouterr().out


def test_check_nan_gradient_fails(capsys, monkeypatch):
    monkeypatch.setattr(optim, "_grad_positions_all",
                        lambda ws, positions, *args: np.full(positions.shape, np.nan))
    assert main(["check"]) == 1
    assert "FAIL gradients" in capsys.readouterr().out


@pytest.mark.parametrize("command, key", [("check", "fd_step"), ("oracle", "grid_step")])
@pytest.mark.parametrize("value", ["0", "-1e-6", "nan", "inf"])
def test_tool_step_must_be_finite_and_positive(command, key, value, capsys):
    assert main([command, "--set", f"{key}={value}"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be finite and > 0")


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
