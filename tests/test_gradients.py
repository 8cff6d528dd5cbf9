import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mara_sim import checks, cli
from mara_sim.errors import SingularChannelError
from mara_sim.scenario import Scenario, generate_scenario
from mara_sim.channel import ChannelWorkspace, initial_state
from mara_sim.optim import _zero_forcing, digital_precoder
from mara_sim.se import sum_se

import reference_forms
from conftest import make_config, random_feasible_state
from test_properties import configs


def build_instance(seed, rng, **config_overrides):
    cfg = make_config(seed=seed, **config_overrides)
    scen = generate_scenario(cfg)
    ws = ChannelWorkspace(scen)
    state = random_feasible_state(scen, rng, scheme="MARA")
    return cfg, scen, ws, state, digital_precoder(ws.state_tensor(state), cfg.total_power_w,
                                                  cfg.noise_power_w)


def gradient_errors(seed, rng, **config_overrides):
    cfg, _, ws, state, prec = build_instance(seed, rng, **config_overrides)
    return reference_forms.gradient_errors(ws, state, prec, 1e-6)[seed % cfg.num_bs_antennas]


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
    grad = checks.se_gradients(ws, state, prec)[0][0]
    se = sum_se(ws.state_tensor(state), prec.w, cfg.noise_power_w)
    scale = se * 2 * np.pi / scen.config.wavelength  # natural gradient magnitude unit
    assert np.linalg.norm(grad) < 1e-10 * scale


def test_zero_path_gains_give_zero_gradients():
    cfg = make_config(num_ues=1, num_bs_antennas=2, num_paths_per_ue=2,
                      num_subcarriers=2, seed=42)
    template = generate_scenario(cfg)
    dead_paths = dataclasses.replace(template.paths, gains=np.zeros(template.paths.gains.shape))
    scen = Scenario(config=cfg, initial_positions=template.initial_positions,
                    ue_positions=template.ue_positions, paths=dead_paths,
                    subcarrier_frequencies=template.subcarrier_frequencies)
    ws = ChannelWorkspace(scen)
    state = initial_state(scen, "MARA")
    w = np.ones((2, 2, 1), dtype=complex) * 0.3
    prec = type("W", (), {"w": w})()
    grad_pos, grad_pat = checks.se_gradients(ws, state, prec)
    assert np.all(grad_pos[0] == 0.0)
    assert np.all(grad_pat[1] == 0.0)


def test_pattern_gradient_is_real_valued(rng):
    cfg, scen, ws, state, prec = build_instance(43, rng)
    grad = checks.se_gradients(ws, state, prec)[1][0]
    assert grad.dtype == np.float64


def test_degenerate_sphere_tangential_component_zero(rng):
    # K = 1: the unit sphere is two points, so the tangential component of any
    # gradient is identically zero.
    cfg = make_config(shod_max_degree=0, seed=44)
    scen = generate_scenario(cfg)
    ws = ChannelWorkspace(scen)
    state = random_feasible_state(scen, rng, scheme="MARA")
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    for m, grad in enumerate(checks.se_gradients(ws, state, prec)[1]):
        alpha = state.coefficients[m]
        tangent = grad - (grad @ alpha) * alpha
        assert np.linalg.norm(tangent) < 1e-12 * max(1.0, np.linalg.norm(grad))


def block_remainders(ws, state, prec, seed, mutate=lambda g: g):
    """`checks.taylor_remainders` along directions drawn from seed, of the gradients
    of `checks.se_gradients` passed through mutate."""
    se_gradients = checks.se_gradients
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "se_gradients",
                      lambda *args: tuple(map(mutate, se_gradients(*args))))
        return checks.taylor_remainders(ws, state, prec, np.random.default_rng(seed))


def taylor_checks(ws, state, prec, seed, mutate=lambda g: g):
    """Whether each block's gradient passes the Taylor test (positions, patterns)."""
    return tuple(checks.taylor_order(r, floor) > 1.6
                 for r, floor, _ in block_remainders(ws, state, prec, seed, mutate))


def off_zf_instance(cfg, rng):
    """A workspace, a drawn MARA state and the ZF precoder of another drawn state,
    away from the state's own ZF point, where the fixed-precoder SE is not smooth."""
    ws = ChannelWorkspace(generate_scenario(cfg))
    state, other = checks.random_feasible_state(ws, rng), checks.random_feasible_state(ws, rng)
    return ws, state, _zero_forcing(ws, other)[0]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(cfg=configs(), noise_exponent=st.floats(-200.0, 3.0), seed=st.integers(0, 2 ** 16))
def test_taylor_remainder_of_both_gradients_falls_as_h_squared_at_any_snr(
        cfg, noise_exponent, seed):
    cfg = dataclasses.replace(cfg, noise_power_w=10.0 ** noise_exponent)
    try:
        ws, state, prec = off_zf_instance(cfg, np.random.default_rng(seed))
    except SingularChannelError:
        assume(False)
    assert taylor_checks(ws, state, prec, seed + 1) == (True, True)


def one_row_zeroed(g):
    g = g.copy()
    g[np.argmax(np.linalg.norm(g, axis=1))] = 0.0
    return g


def one_sign_flipped(g):
    g = g.copy()
    g.flat[np.argmax(np.abs(g))] *= -1.0
    return g


MUTATIONS = {"x(1+1e-3)": lambda g: g * (1.0 + 1e-3), "row-zeroed": one_row_zeroed,
             "sign-flipped": one_sign_flipped}
STATES = range(5)


@pytest.mark.parametrize("noise", [None, 1e-12, 1e-100, 1e-200],
                         ids=["check-default", "1e-12", "1e-100", "1e-200"])
def test_taylor_check_passes_the_gradient_and_fails_each_mutation(noise):
    cfg = cli._check_default_config()
    cfg = cfg if noise is None else dataclasses.replace(cfg, noise_power_w=noise)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for trial in STATES:
            ws, state, prec = off_zf_instance(cfg, np.random.default_rng(trial))
            assert taylor_checks(ws, state, prec, [trial, 1]) == (True, True)
            for name, mutate in MUTATIONS.items():
                assert taylor_checks(ws, state, prec, [trial, 1], mutate) == (False, False), name


def test_taylor_check_fails_a_one_in_1e5_slip_wherever_its_steps_resolve_it():
    # A slip of g by a factor 1 + eps adds eps h <g, v> to r(h). The steps see it
    # only where that lies above the correct gradient's h^2 remainder at the
    # smallest step; along a random direction it does in most states, not all.
    cfg, eps, resolved = cli._check_default_config(), 1e-5, 0
    for trial in STATES:
        ws, state, prec = off_zf_instance(cfg, np.random.default_rng(trial))
        correct = block_remainders(ws, state, prec, [trial, 1])
        slipped = block_remainders(ws, state, prec, [trial, 1], lambda g: g * (1.0 + eps))
        for (r, _, slope), (r_slipped, floor, _) in zip(correct, slipped):
            if eps * checks.TAYLOR_STEPS[-1] * abs(slope) > 2.0 * r[-1]:
                resolved += 1
                assert not checks.taylor_order(r_slipped, floor) > 1.6
    assert resolved >= len(STATES)
