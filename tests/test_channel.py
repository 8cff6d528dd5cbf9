import cmath
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from mara_sim.errors import ContractError
from mara_sim.scenario import PathSet, generate_scenario
from mara_sim.shod import build_basis, build_omega, departure_angles
from mara_sim.channel import (AntennaState, ChannelWorkspace, initial_state,
                              project_to_movement_region, validate_state)
from mara_sim.checks import ecsi
from mara_sim.optim import _grad_patterns_all, _grad_positions_all, digital_precoder
from mara_sim.harness import reference_config
from mara_sim.se import effective_channel, sinr_terms

from conftest import channel, make_config, random_feasible_state
from reference_forms import pattern_gain, workspace_arrays_loop

ISO = 1.0 / math.sqrt(4.0 * math.pi)


def random_paths(rng, L, U=1, max_delay=5e-7):
    """A random (U, L) path table: unit wave vectors, gains of variance 1/L."""
    k_tx = rng.standard_normal((U, L, 3))
    k_tx /= np.linalg.norm(k_tx, axis=-1, keepdims=True)
    k_rx = rng.standard_normal((U, L, 3))
    k_rx /= np.linalg.norm(k_rx, axis=-1, keepdims=True)
    gains = (rng.standard_normal((U, L)) + 1j * rng.standard_normal((U, L))) * math.sqrt(0.5 / L)
    return PathSet(gains=gains, tx_wave_vectors=k_tx, rx_wave_vectors=k_rx,
                   delays=rng.uniform(0, max_delay, (U, L)))


def one_path(k_tx, k_rx, gain=1.0 + 0j, delay=0.0):
    """A table of one UE on one path."""
    return PathSet(gains=[[gain]], tx_wave_vectors=[[k_tx]], rx_wave_vectors=[[k_rx]],
                   delays=[[delay]])


def direct_channel_sum(paths, u, basis, alpha, p, q, f, lam):
    """Unfactored multipath sum of UE u: per-path gain x pattern x steering phases."""
    theta, phi = departure_angles(paths)
    total = 0.0 + 0.0j
    for i in range(paths.gains.shape[1]):
        x = paths.gains[u, i] * cmath.exp(-2j * math.pi * paths.delays[u, i] * f)
        f_tx = pattern_gain(basis, alpha, theta[u, i], phi[u, i])
        phase = cmath.exp(-1j * (2 * math.pi / lam) * float(paths.tx_wave_vectors[u, i] @ p))
        phase *= cmath.exp(-1j * (2 * math.pi / lam) * float(paths.rx_wave_vectors[u, i] @ q))
        total += x * f_tx * phase
    return total


def path_terms(paths, position, ue_position, frequency_hz, wavelength):
    """ecsi of UE 0 read through omega = I: per path, the product a * x * b of the
    receive steering factor, the delay-adjusted gain and the transmit steering factor."""
    return np.conj(ecsi(paths, 0, np.eye(paths.gains.shape[1]), position, ue_position,
                        frequency_hz, wavelength))


def tx_steering(paths, position, wavelength):
    """ecsi's transmit steering factors: unit gains, the UE at the origin, f = 0."""
    unit = replace(paths, gains=np.ones(paths.gains.shape))
    return path_terms(unit, position, np.zeros(3), 0.0, wavelength)


def rx_steering(paths, ue_position, wavelength):
    """ecsi's receive steering factors: unit gains, the antenna at the origin, f = 0."""
    unit = replace(paths, gains=np.ones(paths.gains.shape))
    return path_terms(unit, np.zeros(3), ue_position, 0.0, wavelength)


def path_gains(ps, frequency_hz):
    """ecsi's delay-adjusted path gains: the antenna and the UE at the origin."""
    return path_terms(ps, np.zeros(3), np.zeros(3), frequency_hz, 0.1)


def test_tx_steering_zero_position(rng):
    ps = random_paths(rng, 4)
    assert np.allclose(tx_steering(ps, np.zeros(3), 0.1), 1.0)


def test_tx_steering_half_wavelength():
    ps = one_path(k_tx=(0.0, 0.0, 1.0), k_rx=(1.0, 0.0, 0.0))
    lam = 0.08
    value = tx_steering(ps, np.array([0.0, 0.0, lam / 2]), lam)[0]
    assert value == pytest.approx(-1.0, abs=1e-14)


def test_tx_steering_matches_scalar_oracle(rng):
    ps = random_paths(rng, 6)
    lam = 0.0857
    p = rng.standard_normal(3) * 0.01
    vec = tx_steering(ps, p, lam)
    for i in range(6):
        expected = cmath.exp(-1j * (2 * math.pi / lam) * float(ps.tx_wave_vectors[0, i] @ p))
        assert abs(vec[i] - expected) < 1e-14


def test_rx_steering_zero_position(rng):
    ps = random_paths(rng, 5)
    assert np.allclose(rx_steering(ps, np.zeros(3), 0.1), 1.0)


def test_rx_steering_unit_modulus(rng):
    ps = random_paths(rng, 5)
    vec = rx_steering(ps, rng.standard_normal(3) * 100, 0.0857)
    assert np.max(np.abs(np.abs(vec) - 1.0)) < 1e-14


def test_rx_steering_matches_scalar_oracle(rng):
    ps = random_paths(rng, 5)
    lam = 0.0857
    q = rng.standard_normal(3) * 0.3  # moderate phases keep exp() reductions comparable
    vec = rx_steering(ps, q, lam)
    for i in range(5):
        expected = cmath.exp(-1j * (2 * math.pi / lam) * float(ps.rx_wave_vectors[0, i] @ q))
        assert abs(vec[i] - expected) < 1e-14


def test_path_gains_zero_delay(rng):
    ps = random_paths(rng, 4, max_delay=0.0)
    assert np.array_equal(path_gains(ps, 2.4e9), ps.gains[0])


def test_path_gains_half_cycle():
    ps = one_path(k_tx=(1.0, 0.0, 0.0), k_rx=(1.0, 0.0, 0.0), gain=0.7 - 0.2j, delay=5e-7)
    # tau * f = 0.5 -> phase factor exp(-j pi) = -1
    assert path_gains(ps, 1e6)[0] == pytest.approx(-ps.gains[0, 0], abs=1e-14)


def test_path_gains_preserve_magnitude(rng):
    ps = random_paths(rng, 8)
    x = path_gains(ps, 3.5e9)
    assert np.allclose(np.abs(x), np.abs(ps.gains[0]), atol=1e-15)


def test_ecsi_single_path_hand_expansion():
    lam = 0.0857
    gain = 0.3 + 0.8j
    tau = 2e-7
    f = 3.5e9
    ps = one_path(k_tx=(0.0, 0.0, 1.0), k_rx=(0.0, 1.0, 0.0), gain=gain, delay=tau)
    basis = build_basis(0)
    omega = build_omega(basis, ps)[0]
    p = np.array([0.0, 0.0, 0.013])
    q = np.array([0.0, 7.5, 0.0])
    qvec = ecsi(ps, 0, omega, p, q, f, lam)
    expected = (gain * cmath.exp(-2j * math.pi * tau * f)
                * cmath.exp(-1j * (2 * math.pi / lam) * 0.013)
                * cmath.exp(-1j * (2 * math.pi / lam) * 7.5) * ISO)
    assert abs(np.conj(qvec) @ np.array([1.0]) - expected) < 1e-12


def test_ecsi_isotropic_matches_scaled_plain_sum(rng):
    # With alpha = e1 the factorized value is the pattern-free multipath sum
    # scaled by the constant-harmonic value.
    ps = random_paths(rng, 5)
    lam = 0.0857
    f = 3.5e9
    basis = build_basis(2)
    omega = build_omega(basis, ps)[0]
    p = rng.standard_normal(3) * 0.01
    q = rng.standard_normal(3) * 10
    alpha = np.zeros(9)
    alpha[0] = 1.0
    value = np.conj(ecsi(ps, 0, omega, p, q, f, lam)) @ alpha
    plain = 0.0 + 0.0j
    for i in range(5):
        x = ps.gains[0, i] * cmath.exp(-2j * math.pi * ps.delays[0, i] * f)
        phase = cmath.exp(-1j * (2 * math.pi / lam)
                          * float(ps.tx_wave_vectors[0, i] @ p + ps.rx_wave_vectors[0, i] @ q))
        plain += x * phase
    assert abs(value - plain * ISO) < 1e-12


def test_ecsi_matches_unfactored_sum(rng):
    ps = random_paths(rng, 7, U=3)
    lam = 0.0857
    f = 3.51e9
    basis = build_basis(2)
    omega = build_omega(basis, ps)
    alpha = rng.standard_normal(9)
    alpha /= np.linalg.norm(alpha)
    p = rng.standard_normal(3) * 0.02
    q = rng.standard_normal(3) * 12
    for u in range(3):
        value = np.conj(ecsi(ps, u, omega[u], p, q, f, lam)) @ alpha
        expected = direct_channel_sum(ps, u, basis, alpha, p, q, f, lam)
        assert abs(value - expected) < 1e-12


def test_ecsi_dimension_mismatch(rng):
    ps = random_paths(rng, 3)
    basis = build_basis(1)
    omega = build_omega(basis, ps)
    with pytest.raises(ContractError):
        ecsi(ps, 0, omega[0, :2], np.zeros(3), np.zeros(3), 3.5e9, 0.0857)
    with pytest.raises(ContractError):
        ecsi(ps, 0, omega, np.zeros(3), np.zeros(3), 3.5e9, 0.0857)


def test_state_tensor_single_path_closed_form():
    cfg = make_config(num_ues=1, num_bs_antennas=1, num_subcarriers=1,
                      num_paths_per_ue=1, shod_max_degree=0, seed=4)
    scen = generate_scenario(cfg)
    state = initial_state(scen, "TFA")
    h = ChannelWorkspace(scen).state_tensor(state)[0, 0, 0]
    f = scen.subcarrier_frequencies[0]
    expected = direct_channel_sum(scen.paths, 0, build_basis(0), np.array([1.0]),
                                  scen.initial_positions[0], scen.ue_positions[0],
                                  f, scen.config.wavelength)
    assert abs(h - expected) < 1e-12


def test_sma_equals_mara_with_pinned_pattern(rng):
    cfg = make_config(seed=5)
    scen = generate_scenario(cfg)
    sma = random_feasible_state(scen, rng, scheme="SMA")
    mara = AntennaState(sma.positions.copy(), sma.coefficients.copy(), "MARA")
    validate_state(scen, sma)
    validate_state(scen, mara)
    ws = ChannelWorkspace(scen)
    assert np.array_equal(ws.state_tensor(sma), ws.state_tensor(mara))


def test_era_equals_mara_with_pinned_positions(rng):
    cfg = make_config(seed=6)
    scen = generate_scenario(cfg)
    era = random_feasible_state(scen, rng, scheme="ERA")
    mara = AntennaState(era.positions.copy(), era.coefficients.copy(), "MARA")
    validate_state(scen, era)
    validate_state(scen, mara)
    ws = ChannelWorkspace(scen)
    assert np.array_equal(ws.state_tensor(era), ws.state_tensor(mara))


def test_validate_state_scheme_state_mismatch(rng):
    cfg = make_config(seed=7)
    scen = generate_scenario(cfg)
    mara = random_feasible_state(scen, rng, scheme="MARA")
    with pytest.raises(ContractError, match="tagged 'MARA'"):
        validate_state(scen, mara, "SMA")
    sma_moved = random_feasible_state(scen, rng, scheme="SMA")
    sma_moved.scheme = "TFA"
    with pytest.raises(ContractError, match="nominal array"):
        validate_state(scen, sma_moved, "TFA")


@pytest.mark.parametrize("scheme, error", [("SMA", "ball"), ("ERA", "nominal array")],
                         ids=["SMA", "ERA"])
@pytest.mark.parametrize("handle", [lambda scen: scen, ChannelWorkspace],
                         ids=["scenario", "workspace"])
def test_validate_state_rejects_out_of_ball(handle, scheme, error):
    # The solver and the traced benchmark check states against the workspace,
    # so it must carry everything validate_state reads of a scenario.
    cfg = make_config(seed=8)
    scen = generate_scenario(cfg)
    state = initial_state(scen, scheme)
    validate_state(handle(scen), state)
    state.positions[0, 0] += cfg.antenna_spacing  # leaves the d/2 ball
    with pytest.raises(ContractError, match=error):
        validate_state(handle(scen), state)


@pytest.mark.parametrize("handle", [lambda scen: scen, ChannelWorkspace],
                         ids=["scenario", "workspace"])
def test_validate_state_checks_a_state_against_its_schemes_initial_state(handle):
    # Every scheme's initial_state passes. A unit pattern 1e-6 rad off isotropy
    # breaks only the pin of TFA and SMA, and arrays of one row, which would
    # broadcast, break the shape checks; no solve produces either.
    cfg = make_config(seed=10)
    scen = generate_scenario(cfg)
    M, K = cfg.num_bs_antennas, (cfg.shod_max_degree + 1) ** 2
    tilted = np.zeros((M, K))
    tilted[:, 0] = 1.0
    tilted[0, :2] = math.cos(1e-6), math.sin(1e-6)
    for scheme in ("TFA", "SMA", "ERA", "MARA"):
        state = initial_state(scen, scheme)
        validate_state(handle(scen), state)
        off = AntennaState(state.positions, tilted, scheme)
        if scheme in ("TFA", "SMA"):
            with pytest.raises(ContractError,
                               match=f"patterns must be the isotropic coefficient for {scheme}"):
                validate_state(handle(scen), off)
        else:
            validate_state(handle(scen), off)
        with pytest.raises(ContractError, match=re.escape(f"positions must have shape ({M}, 3)")):
            validate_state(handle(scen), AntennaState(state.positions[:1], state.coefficients,
                                                      scheme))
        with pytest.raises(ContractError,
                           match=re.escape(f"coefficients must have shape ({M}, {K})")):
            validate_state(handle(scen), AntennaState(state.positions, state.coefficients[:1],
                                                      scheme))
    with pytest.raises(ContractError, match="unknown scheme 'XYZ'"):
        validate_state(handle(scen), AntennaState(state.positions, state.coefficients, "XYZ"))


@pytest.mark.parametrize("scheme, name, index", [
    ("MARA", "positions", (1, 2)), ("MARA", "coefficients", (0, slice(None))),
    ("TFA", "positions", (0, 0))], ids=["MARA-position", "MARA-pattern", "TFA-position"])
def test_validate_state_rejects_non_finite(rng, scheme, name, index):
    # The ball, nominal-array and unit-norm tests compare with `>`, which is
    # False for NaN, so a NaN must be caught on its own.
    scen = generate_scenario(make_config(seed=9))
    state = random_feasible_state(scen, rng, scheme=scheme)
    validate_state(scen, state)
    getattr(state, name)[index] = np.nan
    with pytest.raises(ContractError, match=f"{name} must be finite"):
        validate_state(scen, state)


# The reference cell's size, the large-array benchmark's, and one UE.
SIZES = {
    "reference": dict(num_ues=2, num_bs_antennas=4, num_subcarriers=8, num_paths_per_ue=6),
    "large": dict(num_ues=4, num_bs_antennas=8, num_subcarriers=32, num_paths_per_ue=12,
                  shod_max_degree=3),
    "one-UE": dict(num_ues=1, num_bs_antennas=4, num_subcarriers=8),
}


@pytest.mark.parametrize("overrides", SIZES.values(), ids=list(SIZES))
def test_stacked_tensor_equals_per_slice_calls_bitwise(overrides, rng):
    # The line search scores stacked candidates and a block's start scores one
    # slice; monotone traces and exact nesting rest on the two agreeing bitwise.
    ws = ChannelWorkspace(generate_scenario(make_config(seed=10, **overrides)))
    states = [random_feasible_state(ws, rng) for _ in range(10)]
    positions = np.stack([s.positions for s in states])
    coefficients = np.stack([s.coefficients for s in states])
    fixed = states[0]
    # Each block builds its fixed factor once, unstacked, and stacks the other.
    phases, pattern = ws.phases(fixed.positions), ws.patterns(fixed.coefficients)
    stacked_phases, stacked_pattern = ws.phases(positions), ws.patterns(coefficients)
    assert np.array_equal(stacked_phases, [ws.phases(p) for p in positions])
    assert np.array_equal(stacked_pattern, [ws.patterns(c) for c in coefficients])
    assert np.array_equal(ws.tensor(stacked_phases, pattern),
                          [ws.tensor(ws.phases(p), pattern) for p in positions])
    assert np.array_equal(ws.tensor(phases, stacked_pattern),
                          [ws.tensor(phases, ws.patterns(c)) for c in coefficients])


@pytest.mark.parametrize("overrides", SIZES.values(), ids=list(SIZES))
def test_stacked_gradients_equal_per_slice_calls_bitwise(overrides, rng):
    # The lockstep ascent takes every live restart's gradient in one call on
    # the slot stack; each slot must equal its own unstacked call bit for bit.
    cfg = make_config(seed=12, **overrides)
    ws = ChannelWorkspace(generate_scenario(cfg))
    states = [random_feasible_state(ws, rng) for _ in range(4)]
    fixed = states[0]
    prec = digital_precoder(ws.state_tensor(fixed), cfg.total_power_w, cfg.noise_power_w)

    def terms(phases, pattern):
        gains = effective_channel(ws.tensor(phases, pattern), prec.w)
        return (gains, *sinr_terms(gains, cfg.noise_power_w))

    pattern, phases = ws.patterns(fixed.coefficients), ws.phases(fixed.positions)
    for width in (1, 2, 4):
        positions = np.stack([s.positions for s in states[:width]])
        stacked = ws.phases(positions)
        assert np.array_equal(
            _grad_positions_all(ws, stacked, pattern, *terms(stacked, pattern), prec),
            [_grad_positions_all(ws, ws.phases(p), pattern,
                                 *terms(ws.phases(p), pattern), prec) for p in positions])
        coefficients = np.stack([s.coefficients for s in states[:width]])
        stacked = ws.patterns(coefficients)
        assert np.array_equal(
            _grad_patterns_all(ws, phases, *terms(phases, stacked), prec),
            [_grad_patterns_all(ws, phases, *terms(phases, ws.patterns(c)), prec)
             for c in coefficients])


# The reference cell's shape and those of the tfa_wideband and large_array benchmarks.
WORKSPACE_SHAPES = {
    "reference": {},
    "tfa_wideband": dict(num_subcarriers=256, num_bs_antennas=8, num_ues=4),
    "large_array": dict(num_subcarriers=32, num_bs_antennas=8, num_ues=4,
                        num_paths_per_ue=12, shod_max_degree=3),
}


@pytest.mark.parametrize("overrides", WORKSPACE_SHAPES.values(), ids=list(WORKSPACE_SHAPES))
def test_workspace_equals_its_per_ue_build_bitwise(overrides):
    # The workspace builds omega and env from the whole path table in one pass;
    # every bit the solver reads must be the per-UE build's.
    for seed in range(10):
        scen = generate_scenario(replace(reference_config(seed), **overrides))
        ws = ChannelWorkspace(scen)
        for built, expected in zip((ws.omega, ws.tx_wave_vectors, ws.env),
                                   workspace_arrays_loop(scen)):
            assert built.shape == expected.shape and built.dtype == expected.dtype
            assert built.tobytes() == expected.tobytes()


def test_factorization_exactness_random_entries(rng):
    cfg = make_config(seed=9)
    scen = generate_scenario(cfg)
    state = random_feasible_state(scen, rng, scheme="MARA")
    basis = build_basis(cfg.shod_max_degree)
    h = ChannelWorkspace(scen).state_tensor(state)
    for _ in range(50):
        u = int(rng.integers(cfg.num_ues))
        m = int(rng.integers(cfg.num_bs_antennas))
        g = int(rng.integers(cfg.num_subcarriers))
        expected = direct_channel_sum(scen.paths, u, basis, state.coefficients[m],
                                      state.positions[m], scen.ue_positions[u],
                                      scen.subcarrier_frequencies[g], scen.config.wavelength)
        assert abs(h[u, m, g] - expected) < 1e-12


def test_single_path_magnitude_position_invariant(rng):
    cfg = make_config(num_paths_per_ue=1, seed=10)
    scen = generate_scenario(cfg)
    base = initial_state(scen, "SMA")
    ws = ChannelWorkspace(scen)
    magnitudes = np.abs(ws.state_tensor(base))
    for _ in range(5):
        state = random_feasible_state(scen, rng, scheme="SMA")
        moved = np.abs(ws.state_tensor(state))
        assert np.allclose(moved, magnitudes, atol=1e-13)


def test_tensor_linear_in_alpha(rng):
    cfg = make_config(seed=11)
    scen = generate_scenario(cfg)
    ws = ChannelWorkspace(scen)
    pos = scen.initial_positions
    a1 = rng.standard_normal((cfg.num_bs_antennas, 9))
    a2 = rng.standard_normal((cfg.num_bs_antennas, 9))
    c1, c2 = 0.3, -1.7
    combo = channel(ws, pos, c1 * a1 + c2 * a2)
    split = c1 * channel(ws, pos, a1) + c2 * channel(ws, pos, a2)
    assert np.allclose(combo, split, atol=1e-12)


def test_zero_delay_tensor_frequency_flat(rng):
    cfg = make_config(max_delay_s=0.0, seed=12)
    scen = generate_scenario(cfg)
    state = random_feasible_state(scen, rng, scheme="MARA")
    h = ChannelWorkspace(scen).state_tensor(state)
    assert np.allclose(h, h[:, :, :1], atol=1e-15)


def test_projection_radial_clamp(rng):
    cfg = make_config(seed=13)
    scen = generate_scenario(cfg)
    wild = scen.initial_positions + rng.standard_normal(
        (cfg.num_bs_antennas, 3)) * cfg.antenna_spacing
    clamped = project_to_movement_region(scen, wild)
    offsets = np.linalg.norm(clamped - scen.initial_positions, axis=1)
    assert np.all(offsets <= cfg.movement_radius + 1e-15)
    inside = scen.initial_positions + 1e-4 * cfg.antenna_spacing
    assert np.allclose(project_to_movement_region(scen, inside), inside)


@pytest.mark.parametrize("magnitude", [2.0 ** 512, 1e200, 1e300], ids=["2^512", "1e200", "1e300"])
def test_projection_maps_an_offset_too_large_to_square_onto_the_sphere(magnitude, rng):
    # Squared as it is, the offset overflows: its norm reads inf and the clamp maps
    # it to the centre. Tier-1 also fails on the overflow warning.
    cfg = make_config(seed=13)
    scen = generate_scenario(cfg)
    inside = scen.initial_positions + rng.uniform(-0.5, 0.5, (2, cfg.num_bs_antennas, 3)) * (
        cfg.movement_radius / 2)
    direction = rng.standard_normal(3)
    wild = inside.copy()
    wild[1, 0] = scen.initial_positions[0] + magnitude * direction
    clamped = project_to_movement_region(scen, wild)
    offset = clamped[1, 0] - scen.initial_positions[0]
    assert abs(np.linalg.norm(offset) - cfg.movement_radius) <= 1e-12 * cfg.movement_radius
    assert np.allclose(offset / cfg.movement_radius, direction / np.linalg.norm(direction),
                       rtol=0.0, atol=1e-12)
    # Every other row keeps the bits it has in a call with no such offset.
    expected = project_to_movement_region(scen, inside)
    expected[1, 0] = clamped[1, 0]
    assert np.array_equal(clamped, expected)


@pytest.mark.parametrize("row", [(np.inf, 0.0, 0.0), (-np.inf, 1e300, np.inf),
                                 (np.inf, np.inf, -np.inf), (2.0, -np.inf, -3.0)],
                         ids=["x", "x-z", "xyz", "y"])
def test_projection_maps_an_infinite_offset_onto_the_sphere_along_its_signs(row, rng):
    # An infinite offset has no direction of its own; the clamp scale is then 0 and
    # inf * 0 is NaN. It goes onto the sphere along the signs of its infinite
    # coordinates, and every other row keeps the bits it has without it.
    cfg = make_config(seed=13)
    scen = generate_scenario(cfg)
    inside = scen.initial_positions + rng.uniform(-0.5, 0.5, (2, cfg.num_bs_antennas, 3)) * (
        cfg.movement_radius / 2)
    wild = inside.copy()
    wild[1, 0] = scen.initial_positions[0] + np.array(row)
    clamped = project_to_movement_region(scen, wild)
    offset = clamped[1, 0] - scen.initial_positions[0]
    signs = np.copysign(np.isinf(row), row)
    assert abs(np.linalg.norm(offset) - cfg.movement_radius) <= 1e-12 * cfg.movement_radius
    assert np.allclose(offset / cfg.movement_radius, signs / np.linalg.norm(signs),
                       rtol=0.0, atol=1e-12)
    expected = project_to_movement_region(scen, inside)
    expected[1, 0] = clamped[1, 0]
    assert np.array_equal(clamped, expected)


def test_projection_clamp_is_the_compare_and_select_bit_for_bit(rng):
    # The projection's one-op clamp fmin(1, r / max(n, 1e-300)) against the
    # compare-and-select it stands for, at random norms and at the edges: 0,
    # the radius and its neighbours, a subnormal, inf and NaN.
    radius = make_config(seed=13).movement_radius
    norms = np.concatenate([rng.uniform(0.0, 2.0 * radius, 100_000),
                            [0.0, radius, np.nextafter(radius, np.inf),
                             np.nextafter(radius, -np.inf), 1e-320, np.inf, np.nan]])
    clamp = np.fmin(1.0, radius / np.maximum(norms, 1e-300))
    select = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
    assert np.array_equal(clamp.view(np.int64), select.view(np.int64))
