"""The brute-force position oracle against its per-candidate reference loop."""

import warnings

import numpy as np
import pytest

from mara_sim import checks, cli, optim
from mara_sim.channel import ChannelWorkspace, initial_state
from mara_sim.scenario import generate_scenario
from mara_sim.se import PrecoderSet

from conftest import make_config, random_feasible_state
from reference_forms import brute_force_positions_loop


def oracle_instance(cfg, scheme="SMA", state_seed=None):
    """A workspace, a state (nominal, or drawn feasible from state_seed) and the
    state's ZF precoder."""
    ws = ChannelWorkspace(generate_scenario(cfg))
    state = (initial_state(ws, scheme) if state_seed is None else
             random_feasible_state(ws, np.random.default_rng(state_seed), scheme))
    return ws, state, optim._zero_forcing(ws, state)[0]


def case(cfg, scheme, state_seed, radius_steps, name):
    return pytest.param(cfg, scheme, state_seed, cfg.movement_radius / radius_steps, id=name)


ORACLE = cli._oracle_default_config()
CASES = [
    # `mara-sim oracle`'s own config and grid step.
    pytest.param(ORACLE, "SMA", None, ORACLE.antenna_spacing / 40.0, id="oracle-default"),
    case(make_config(num_ues=1, num_bs_antennas=2, seed=3), "SMA", None, 4, "U1-M2"),
    case(make_config(num_ues=2, num_bs_antennas=2, seed=4), "SMA", None, 4, "U2-M2"),
    case(make_config(seed=5), "SMA", 7, 5, "random-SMA-state"),
    case(make_config(num_bs_antennas=4, seed=6), "MARA", 8, 3, "random-MARA-state"),
    # 5,576 candidates per antenna, scored in two stacked calls each.
    case(make_config(num_ues=2, num_bs_antennas=2, seed=7), "SMA", 9, 11, "several-chunks"),
]


@pytest.mark.parametrize("cfg, scheme, state_seed, grid_step", CASES)
def test_brute_force_equals_the_per_candidate_loop_bitwise(cfg, scheme, state_seed, grid_step):
    ws, state, prec = oracle_instance(cfg, scheme, state_seed)
    out = checks.brute_force_positions(ws, state, prec, grid_step)
    ref = brute_force_positions_loop(ws, state, prec, grid_step)
    assert out.positions.tobytes() == ref.positions.tobytes()
    assert np.array_equal(out.coefficients, state.coefficients) and out.scheme == scheme


def test_brute_force_scores_each_antennas_grid_in_a_few_stacked_calls(monkeypatch):
    # The several-chunks case: 5,576 candidates per antenna, and M*U*L*G = 64
    # channel entries per candidate give 2**18 // 64 = 4,096 rows per call.
    cfg = make_config(num_ues=2, num_bs_antennas=2, seed=7)
    ws, state, prec = oracle_instance(cfg, "SMA", 9)
    calls, sum_se = [], checks.sum_se
    monkeypatch.setattr(checks, "sum_se", lambda h, *args: calls.append(len(h)) or sum_se(h, *args))
    checks.brute_force_positions(ws, state, prec, cfg.movement_radius / 11)
    assert calls == [4096, 1480] * cfg.num_bs_antennas


@pytest.mark.parametrize("rows", [1, 7, 4096])
def test_brute_force_is_bitwise_the_same_at_any_chunk_size(rows, monkeypatch):
    cfg = make_config(num_ues=2, num_bs_antennas=2, seed=8)
    ws, state, prec = oracle_instance(cfg, "SMA", 10)
    grid_step = cfg.movement_radius / 4
    ref = brute_force_positions_loop(ws, state, prec, grid_step)
    monkeypatch.setattr(checks, "_SCORED_ENTRIES", rows * cfg.num_bs_antennas * ws.env.size)
    out = checks.brute_force_positions(ws, state, prec, grid_step)
    assert out.positions.tobytes() == ref.positions.tobytes()


@pytest.mark.parametrize("one_row_chunks", [False, True], ids=["one-chunk", "one-row-chunks"])
def test_an_all_zero_precoder_ties_every_candidate_and_keeps_the_positions(one_row_chunks,
                                                                           monkeypatch):
    cfg = make_config(seed=11)
    ws, state, prec = oracle_instance(cfg, "SMA", 12)
    if one_row_chunks:
        monkeypatch.setattr(checks, "_SCORED_ENTRIES", 1)
    out = checks.brute_force_positions(ws, state, PrecoderSet(np.zeros_like(prec.w)),
                                       cfg.movement_radius / 4)
    assert np.array_equal(out.positions, state.positions)


def test_a_nan_precoder_keeps_the_positions_without_a_warning():
    cfg = make_config(seed=13)
    ws, state, prec = oracle_instance(cfg, "SMA", 14)
    w = prec.w.copy()
    w[0, 0, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = checks.brute_force_positions(ws, state, PrecoderSet(w),
                                           cfg.movement_radius / 4)
    assert np.array_equal(out.positions, state.positions)


def test_a_nan_candidate_never_wins(monkeypatch):
    # Every candidate scores NaN but the last of each chunk: the last one wins.
    cfg = make_config(num_ues=1, num_bs_antennas=1, seed=15)
    ws, state, prec = oracle_instance(cfg)

    def nan_but_last(h, *args):
        se = np.full(len(h), np.nan)
        se[-1] = 1.0
        return se

    monkeypatch.setattr(checks, "sum_se", nan_but_last)
    out = checks.brute_force_positions(ws, state, prec, cfg.movement_radius / 2)
    last = ws.initial_positions[0] + [cfg.movement_radius, 0.0, 0.0]
    assert np.array_equal(out.positions[0], last)
