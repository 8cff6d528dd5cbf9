import numpy as np
import pytest

from mara_sim import checks
from mara_sim.scenario import PathSet, Scenario, generate_scenario
from mara_sim.channel import ChannelWorkspace, initial_state
from mara_sim.se import effective_channel, sum_se_arrays
from mara_sim.optim import digital_precoder

from conftest import make_config, random_feasible_state


def build_instance(seed, rng, **config_overrides):
    cfg = make_config(seed=seed, **config_overrides)
    scen = generate_scenario(cfg)
    ws = ChannelWorkspace(scen)
    state = random_feasible_state(scen, rng, scheme="MARA")
    return cfg, scen, ws, state, digital_precoder(ws.state_tensor(state), cfg.total_power_w,
                                                  cfg.noise_power_w)


def gradient_errors(seed, rng, **config_overrides):
    cfg, _, ws, state, prec = build_instance(seed, rng, **config_overrides)
    return checks.gradient_errors(ws, state, prec, seed % cfg.num_bs_antennas, 1e-6)


# The benchmark's large_array shape, whose gains take the folded matmul kernel.
LARGE_ARRAY = dict(num_ues=4, num_bs_antennas=8, num_subcarriers=32,
                   num_paths_per_ue=12, shod_max_degree=3)
GRADIENT_CASES = [pytest.param(seed, {}, id=str(seed)) for seed in range(20)] + [
    pytest.param(seed, LARGE_ARRAY, id=f"large_array-{seed}") for seed in range(3)]


@pytest.mark.parametrize("seed, overrides", GRADIENT_CASES)
def test_position_gradient_matches_finite_differences(seed, overrides, rng):
    assert gradient_errors(seed, rng, **overrides)[0] < 1e-5


@pytest.mark.parametrize("seed, overrides", GRADIENT_CASES)
def test_pattern_gradient_matches_finite_differences(seed, overrides, rng):
    assert gradient_errors(seed, rng, **overrides)[1] < 1e-5


def test_single_path_single_user_position_gradient_vanishes(rng):
    # One path and one user: movement only rotates the phase of the single
    # channel coefficient, so the SE gradient is (numerically) zero.
    cfg = make_config(num_ues=1, num_bs_antennas=1, num_paths_per_ue=1,
                      num_subcarriers=1, seed=41)
    scen = generate_scenario(cfg)
    ws = ChannelWorkspace(scen)
    state = initial_state(scen, "SMA")
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    grad = checks.se_gradient_positions(ws, state, prec, 0)
    se = sum_se_arrays(effective_channel(ws.state_tensor(state), prec.w), cfg.noise_power_w)
    scale = se * 2 * np.pi / scen.wavelength  # natural gradient magnitude unit
    assert np.linalg.norm(grad) < 1e-10 * scale


def test_zero_path_gains_give_zero_gradients():
    cfg = make_config(num_ues=1, num_bs_antennas=2, num_paths_per_ue=2,
                      num_subcarriers=2, seed=42)
    template = generate_scenario(cfg)
    dead_paths = tuple(
        PathSet(gains=np.zeros(ps.num_paths, dtype=complex),
                tx_wave_vectors=ps.tx_wave_vectors,
                rx_wave_vectors=ps.rx_wave_vectors,
                delays=ps.delays)
        for ps in template.path_sets)
    scen = Scenario(config=cfg, initial_positions=template.initial_positions,
                    ue_positions=template.ue_positions, path_sets=dead_paths,
                    subcarrier_frequencies=template.subcarrier_frequencies)
    ws = ChannelWorkspace(scen)
    state = initial_state(scen, "MARA")
    w = np.ones((2, 2, 1), dtype=complex) * 0.3
    prec = type("W", (), {"w": w})()
    assert np.all(checks.se_gradient_positions(ws, state, prec, 0) == 0.0)
    assert np.all(checks.se_gradient_patterns(ws, state, prec, 1) == 0.0)


def test_pattern_gradient_is_real_valued(rng):
    cfg, scen, ws, state, prec = build_instance(43, rng)
    grad = checks.se_gradient_patterns(ws, state, prec, 0)
    assert grad.dtype == np.float64


def test_degenerate_sphere_tangential_component_zero(rng):
    # K = 1: the unit sphere is two points, so the tangential component of any
    # gradient is identically zero.
    cfg = make_config(shod_max_degree=0, seed=44)
    scen = generate_scenario(cfg)
    ws = ChannelWorkspace(scen)
    state = random_feasible_state(scen, rng, scheme="MARA")
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    for m in range(cfg.num_bs_antennas):
        grad = checks.se_gradient_patterns(ws, state, prec, m)
        alpha = state.coefficients[m]
        tangent = grad - (grad @ alpha) * alpha
        assert np.linalg.norm(tangent) < 1e-12 * max(1.0, np.linalg.norm(grad))
