import dataclasses
import math

import numpy as np
import pytest

import mara_sim.optim as optim
from mara_sim.errors import ContractError, SingularChannelError, SizeLimitError
from mara_sim.scenario import SCHEME_ORDER, PathSet, Scenario, generate_scenario
from mara_sim.shod import build_basis, build_omega
from mara_sim.channel import (MOVABLE_SCHEMES, RECONFIGURABLE_SCHEMES, AntennaState,
                              ChannelWorkspace, initial_state)
from mara_sim.checks import brute_force_positions, ecsi
from mara_sim.se import sum_se, sum_se_arrays
from mara_sim.harness import reference_config
from mara_sim.optim import (WARM_STARTS, OptimOptions, OptimResult, alternating_optimize,
                            digital_precoder, optimize_patterns, optimize_positions)

from conftest import make_config, random_feasible_state

ISO = 1.0 / math.sqrt(4.0 * math.pi)

FAST = OptimOptions(max_outer_iters=3, inner_grad_iters=25, restarts=2,
                    tol_rel=1e-5, seed=0)


def two_path_axis_scenario(phase_offset_frac=0.3):
    """Single antenna, single UE, two paths along +/- x: SE depends only on
    the antenna's x coordinate, with an interior phase-alignment optimum."""
    cfg = make_config(num_ues=1, num_bs_antennas=1, num_subcarriers=1,
                      num_paths_per_ue=2, max_delay_s=0.0,
                      noise_power_w=0.05, seed=50)
    kappa = 2 * math.pi / cfg.wavelength
    delta = phase_offset_frac * cfg.movement_radius
    gains = np.array([1.0, np.exp(-2j * kappa * delta)]) * math.sqrt(0.5)
    paths = PathSet(gains=gains[None],
                    tx_wave_vectors=np.array([[[1.0, 0, 0], [-1.0, 0, 0]]]),
                    rx_wave_vectors=np.array([[[0.0, 0, 1], [0.0, 0, 1]]]),
                    delays=np.zeros((1, 2)))
    scen = Scenario(config=cfg,
                    initial_positions=np.zeros((1, 3)),
                    ue_positions=np.array([[0.0, 150.0, 0.0]]),
                    paths=paths,
                    subcarrier_frequencies=np.array([cfg.carrier_frequency_hz]))
    return scen, delta, kappa, gains


def axis_channel_value(gains, kappa, x):
    return ISO * (gains[0] * np.exp(-1j * kappa * x) + gains[1] * np.exp(1j * kappa * x))


def test_optimize_positions_monotone_and_feasible(rng):
    cfg = make_config(seed=51)
    scen = generate_scenario(cfg)
    ws = ChannelWorkspace(scen)
    state = random_feasible_state(scen, rng, scheme="SMA")
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    before = sum_se(ws.state_tensor(state), prec.w, cfg.noise_power_w)
    out, _ = optimize_positions(ws, state, prec, FAST)
    after = sum_se(ws.state_tensor(out), prec.w, cfg.noise_power_w)
    assert after >= before
    offsets = np.linalg.norm(out.positions - scen.initial_positions, axis=1)
    assert np.all(offsets <= cfg.movement_radius + 1e-12 * cfg.antenna_spacing)


def test_single_path_position_cannot_help():
    # One path per UE and a matched precoder: |h| is position-invariant, so
    # the matched solution is already optimal and the SE must stay put.
    cfg = make_config(num_ues=1, num_bs_antennas=3, num_paths_per_ue=1,
                      num_subcarriers=2, seed=52)
    scen = generate_scenario(cfg)
    ws = ChannelWorkspace(scen)
    state = initial_state(scen, "SMA")
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    before = sum_se(ws.state_tensor(state), prec.w, cfg.noise_power_w)
    out, _ = optimize_positions(ws, state, prec, OptimOptions(restarts=3))
    after = sum_se(ws.state_tensor(out), prec.w, cfg.noise_power_w)
    assert abs(after - before) <= 1e-9


def test_optimize_positions_matches_1d_grid_oracle():
    scen, delta, kappa, gains = two_path_axis_scenario()
    cfg = scen.config
    ws = ChannelWorkspace(scen)
    state = initial_state(scen, "SMA")
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    w_amp2 = float(np.abs(prec.w[0, 0, 0]) ** 2)
    noise = cfg.noise_power_w
    # independent 1-D brute force on the closed-form channel value
    step = cfg.antenna_spacing / 1000.0
    xs = np.arange(-cfg.movement_radius, cfg.movement_radius + step / 2, step)
    se_grid = max(math.log2(1 + abs(axis_channel_value(gains, kappa, x)) ** 2
                            * w_amp2 / noise) for x in xs)
    out, _ = optimize_positions(ws, state, prec, OptimOptions(seed=3))
    se_opt = sum_se(ws.state_tensor(out), prec.w, noise)
    assert se_opt == pytest.approx(se_grid, rel=1e-6)


def test_optimize_positions_zero_iterations_is_identity(rng):
    cfg = make_config(seed=53)
    scen = generate_scenario(cfg)
    state = random_feasible_state(scen, rng, scheme="SMA")
    ws = ChannelWorkspace(scen)
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    out, _ = optimize_positions(ws, state, prec, OptimOptions(inner_grad_iters=0))
    assert np.array_equal(out.positions, state.positions)
    assert np.array_equal(out.coefficients, state.coefficients)


def test_optimize_positions_rejects_pinned_schemes(rng):
    cfg = make_config(seed=54)
    scen = generate_scenario(cfg)
    ws = ChannelWorkspace(scen)
    prec = digital_precoder(ws.state_tensor(initial_state(scen, "TFA")),
                            cfg.total_power_w, cfg.noise_power_w)
    for scheme in ("TFA", "ERA"):
        with pytest.raises(ContractError):
            optimize_positions(ws, initial_state(scen, scheme), prec)


def test_optimize_patterns_rejects_pinned_schemes(rng):
    cfg = make_config(seed=55)
    scen = generate_scenario(cfg)
    ws = ChannelWorkspace(scen)
    prec = digital_precoder(ws.state_tensor(initial_state(scen, "TFA")),
                            cfg.total_power_w, cfg.noise_power_w)
    for scheme in ("TFA", "SMA"):
        with pytest.raises(ContractError):
            optimize_patterns(ws, initial_state(scen, scheme), prec)


def rank_one_instance(seed):
    cfg = make_config(num_ues=1, num_bs_antennas=1, num_subcarriers=1,
                      seed=seed)
    scen = generate_scenario(cfg)
    basis = build_basis(cfg.shod_max_degree)
    q = ecsi(scen.paths, 0, build_omega(basis, scen.paths)[0], scen.initial_positions[0],
             scen.ue_positions[0], scen.subcarrier_frequencies[0],
             scen.config.wavelength)
    quad = np.real(np.outer(np.conj(q), q))
    return cfg, scen, q, quad


def test_optimize_patterns_stationary_start_unchanged():
    cfg, scen, q, quad = rank_one_instance(56)
    eigvals, eigvecs = np.linalg.eigh(quad)
    alpha_star = eigvecs[:, -1]
    state = AntennaState(scen.initial_positions.copy(), alpha_star[None, :].copy(), "ERA")
    ws = ChannelWorkspace(scen)
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    out, _ = optimize_patterns(ws, state, prec, OptimOptions(seed=4))
    assert np.allclose(out.coefficients[0], alpha_star, atol=1e-9)


def test_optimize_patterns_recovers_rank_one_maximizer():
    # Closed-form oracle: max_{||a||=1} |q^H a|^2 over real a is the largest
    # eigenvalue of Re(conj(q) q^T), attained at its leading eigenvector.
    for seed in (57, 58, 59):
        cfg, scen, q, quad = rank_one_instance(seed)
        best = float(np.linalg.eigvalsh(quad)[-1])
        state = initial_state(scen, "ERA")
        ws = ChannelWorkspace(scen)
        prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
        opts = OptimOptions(seed=5, tol_rel=1e-9, inner_grad_iters=200)
        out, _ = optimize_patterns(ws, state, prec, opts)
        achieved = abs(np.conj(q) @ out.coefficients[0]) ** 2
        assert achieved == pytest.approx(best, rel=1e-6)


def test_optimize_patterns_monotone(rng):
    cfg = make_config(seed=60)
    scen = generate_scenario(cfg)
    ws = ChannelWorkspace(scen)
    state = random_feasible_state(scen, rng, scheme="ERA")
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    before = sum_se(ws.state_tensor(state), prec.w, cfg.noise_power_w)
    out, _ = optimize_patterns(ws, state, prec, FAST)
    after = sum_se(ws.state_tensor(out), prec.w, cfg.noise_power_w)
    assert after >= before
    assert np.allclose(np.linalg.norm(out.coefficients, axis=1), 1.0, atol=1e-10)


def test_alternating_tfa_single_step():
    cfg = make_config(seed=61)
    res = alternating_optimize(ChannelWorkspace(generate_scenario(cfg)), "TFA", FAST)
    assert len(res.se_trace) == 1
    assert res.converged
    assert res.iterations == 1


def test_alternating_rejects_unconfigured_scheme():
    cfg = make_config(schemes=("TFA",), seed=62)
    with pytest.raises(ContractError):
        alternating_optimize(ChannelWorkspace(generate_scenario(cfg)), "SMA", FAST)


@pytest.mark.parametrize("seed", [63, 64])
def test_alternating_traces_monotone_and_nested(seed):
    ws = ChannelWorkspace(generate_scenario(make_config(seed=seed)))
    warm = {}
    results = {}
    for scheme in ("TFA", "SMA", "ERA", "MARA"):
        res = alternating_optimize(ws, scheme, FAST, warm)
        warm[scheme] = res
        results[scheme] = res
        trace = np.asarray(res.se_trace)
        assert np.all(np.diff(trace) >= 0)
    assert results["SMA"].se >= results["TFA"].se
    assert results["ERA"].se >= results["TFA"].se
    assert results["MARA"].se >= max(results["SMA"].se, results["ERA"].se)


def test_alternating_results_consistent_with_final_state():
    cfg = make_config(seed=65)
    scen = generate_scenario(cfg)
    ws = ChannelWorkspace(scen)
    res = alternating_optimize(ws, "MARA", FAST)
    h = ws.state_tensor(res.state)
    se = sum_se(h, res.precoders.w, cfg.noise_power_w)
    assert se == pytest.approx(res.se, rel=1e-12)
    assert res.precoders.total_power == pytest.approx(cfg.total_power_w, rel=1e-9)


def test_singular_mid_solve_precoder_keeps_current(monkeypatch):
    # A precoder re-derivation that hits a singular channel rejects that
    # candidate; the solve goes on with the warm-start precoder.
    ws = ChannelWorkspace(generate_scenario(make_config(seed=66)))
    tfa = alternating_optimize(ws, "TFA", FAST)

    def singular(*args, **kwargs):
        raise SingularChannelError("injected singular channel")

    monkeypatch.setattr(optim, "digital_precoder", singular)
    res = alternating_optimize(ws, "SMA", FAST, {"TFA": tfa})
    assert res.se >= tfa.se
    assert np.array_equal(res.precoders.w, tfa.precoders.w)


@pytest.mark.parametrize("scheme, accepts_per_iteration", [("SMA", 1), ("MARA", 2)],
                         ids=["SMA", "MARA"])
def test_solve_derives_one_precoder_per_sub_step(monkeypatch, scheme,
                                                 accepts_per_iteration):
    # The warm start takes its source's precoders and SE as they are; each
    # block ascent is followed by one accept, which derives one precoder and
    # scores only that candidate.
    ws = ChannelWorkspace(generate_scenario(make_config(seed=66)))
    warm = {}
    for source in SCHEME_ORDER[:SCHEME_ORDER.index(scheme)]:
        warm[source] = alternating_optimize(ws, source, FAST, dict(warm))
    derived, scored, ascending = [], [], []

    def counted_precoder(*args, **kwargs):
        derived.append(1)
        return digital_precoder(*args, **kwargs)

    def counted_se(*args, **kwargs):
        if not ascending:
            scored.append(1)
        return sum_se_arrays(*args, **kwargs)

    def inside(ascend):
        def wrapped(*args, **kwargs):
            ascending.append(1)
            try:
                return ascend(*args, **kwargs)
            finally:
                ascending.pop()
        return wrapped

    monkeypatch.setattr(optim, "digital_precoder", counted_precoder)
    monkeypatch.setattr(optim, "sum_se_arrays", counted_se)
    monkeypatch.setattr(optim, "_ascend_positions", inside(optim._ascend_positions))
    monkeypatch.setattr(optim, "_ascend_patterns", inside(optim._ascend_patterns))
    res = alternating_optimize(ws, scheme, FAST, warm)
    assert res.iterations >= 2
    assert len(derived) == accepts_per_iteration * res.iterations
    assert len(scored) == len(derived)


# Each case is make_config overrides: a few default instances, then edge sizes
# and the sizes of the large-array benchmark workload.
SE_CASES = [dict(seed=80), dict(seed=81), dict(seed=82),
            dict(num_subcarriers=1, seed=83), dict(num_paths_per_ue=1, seed=84),
            dict(num_ues=1, num_bs_antennas=1, seed=85), dict(shod_max_degree=0, seed=86),
            dict(num_ues=3, num_bs_antennas=3, seed=87), dict(max_delay_s=0.0, seed=88),
            dict(num_subcarriers=32, num_bs_antennas=8, num_ues=4, num_paths_per_ue=12,
                 shod_max_degree=3, seed=89)]


@pytest.mark.parametrize("optimize", [optimize_positions, optimize_patterns],
                         ids=["positions", "patterns"])
@pytest.mark.parametrize("overrides", SE_CASES, ids=lambda o: "-".join(
    f"{k}={v}" for k, v in o.items()))
def test_block_optimizers_return_the_se_of_their_state(optimize, overrides, rng):
    # The SE an ascent reports is the one the next accept builds on, so it must
    # equal a fresh evaluation at the returned state bit for bit.
    cfg = make_config(**overrides)
    scen = generate_scenario(cfg)
    ws = ChannelWorkspace(scen)
    state = random_feasible_state(scen, rng, scheme="MARA")
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    for opts in (FAST, OptimOptions(inner_grad_iters=0)):
        out, se = optimize(ws, state, prec, opts)
        assert se == sum_se(ws.state_tensor(out), prec.w, cfg.noise_power_w)


@pytest.mark.parametrize("optimize", [optimize_positions, optimize_patterns],
                         ids=["positions", "patterns"])
@pytest.mark.parametrize("seed", [90, 91, 92])
def test_block_optimizers_without_iterations_return_their_start_as_given(optimize, seed, rng):
    # No projection or renormalisation of the start: a block that takes no step
    # returns the incoming state and its SE bit for bit, so nesting is exact.
    cfg = make_config(seed=seed)
    ws = ChannelWorkspace(generate_scenario(cfg))
    state = random_feasible_state(ws, rng, scheme="MARA")
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    out, se = optimize(ws, state, prec, OptimOptions(inner_grad_iters=0))
    assert np.array_equal(out.positions, state.positions)
    assert np.array_equal(out.coefficients, state.coefficients)
    assert se == sum_se(ws.state_tensor(state), prec.w, cfg.noise_power_w)


@pytest.mark.parametrize("optimize, name", [(optimize_positions, "movement ball"),
                                            (optimize_patterns, "unit-norm")],
                         ids=["positions", "patterns"])
def test_block_optimizers_reject_an_infeasible_start(optimize, name, rng):
    cfg = make_config(seed=93)
    ws = ChannelWorkspace(generate_scenario(cfg))
    state = random_feasible_state(ws, rng, scheme="MARA")
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    if optimize is optimize_positions:
        state.positions[0] = ws.initial_positions[0] + [1.01 * cfg.movement_radius, 0, 0]
    else:
        state.coefficients[1] *= 1.01
    with pytest.raises(ContractError, match=name):
        optimize(ws, state, prec, FAST)


def test_warm_starts_nest_in_scheme_order():
    assert list(WARM_STARTS) == list(SCHEME_ORDER)
    for scheme, sources in WARM_STARTS.items():
        for source in sources:
            assert SCHEME_ORDER.index(source) < SCHEME_ORDER.index(scheme)
            for dofs in (MOVABLE_SCHEMES, RECONFIGURABLE_SCHEMES):
                assert source not in dofs or scheme in dofs


@pytest.mark.parametrize("field", ["max_outer_iters", "inner_grad_iters", "restarts", "seed"])
def test_options_reject_too_few_iterations(field):
    low = 0 if field == "max_outer_iters" else -1
    with pytest.raises(ContractError, match=field):
        OptimOptions(**{field: low})


@pytest.mark.parametrize("field, value", [
    ("tol_rel", float("nan")), ("tol_rel", float("inf")),
    ("max_outer_iters", 2.0), ("inner_grad_iters", 1.5), ("restarts", 1.5),
    ("seed", 0.5), ("max_outer_iters", True), ("inner_grad_iters", True),
    ("restarts", True), ("seed", True), ("tol_rel", True), ("tol_rel", "1e-3"),
    pytest.param("tol_rel", 10 ** 400, id="tol_rel-past-a-double"),
    pytest.param("seed", 10 ** 400, id="seed-past-a-double")])
def test_options_reject_non_finite_and_non_integral_values(field, value):
    with pytest.raises(ContractError, match=field):
        OptimOptions(**{field: value})


def test_options_store_python_int_and_float():
    opts = OptimOptions(max_outer_iters=np.int32(3), inner_grad_iters=np.uint16(4),
                        tol_rel=np.float32(0.5), restarts=np.int8(2), seed=np.uint8(255))
    assert opts == OptimOptions(3, 4, float(np.float32(0.5)), 2, 255)
    assert [type(v) for v in vars(opts).values()] == [int, int, float, int, int]


@pytest.mark.parametrize("seed", [np.uint8(255), np.int64(2 ** 63 - 1)],
                         ids=["uint8-255", "int64-max"])
def test_numpy_integer_seed_solves_like_its_python_int(seed):
    # seed + r used to wrap: a uint8 255 to 0, so restart 1 drew another start,
    # and the largest int64 to a negative seed, which numpy's generator rejects.
    ws = ChannelWorkspace(generate_scenario(
        dataclasses.replace(reference_config(), num_subcarriers=2)))
    traces = [alternating_optimize(ws, "SMA", OptimOptions(
        max_outer_iters=2, inner_grad_iters=10, restarts=2, seed=s)).se_trace
        for s in (int(seed), seed)]
    assert traces[0] == traces[1]


def test_optim_result_rejects_decreasing_trace():
    state = AntennaState(np.zeros((1, 3)), np.ones((1, 1)), "TFA")
    with pytest.raises(ContractError):
        OptimResult(state, None, [2.0, 1.0], True)


def test_brute_force_keeps_incoming_candidate(rng):
    cfg = make_config(num_ues=1, num_bs_antennas=2, num_subcarriers=2,
                      seed=66)
    scen = generate_scenario(cfg)
    ws = ChannelWorkspace(scen)
    state = random_feasible_state(scen, rng, scheme="SMA")
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    before = sum_se(ws.state_tensor(state), prec.w, cfg.noise_power_w)
    out = brute_force_positions(ws, state, prec, cfg.movement_radius / 3)
    after = sum_se(ws.state_tensor(out), prec.w, cfg.noise_power_w)
    assert after >= before


def test_brute_force_finds_phase_alignment_optimum():
    scen, delta, kappa, gains = two_path_axis_scenario()
    cfg = scen.config
    state = initial_state(scen, "SMA")
    ws = ChannelWorkspace(scen)
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    grid_step = cfg.movement_radius / 20
    out = brute_force_positions(ws, state, prec, grid_step)
    # analytic optimum: phases align at x = delta
    assert abs(out.positions[0, 0] - delta) <= grid_step


def test_brute_force_degenerate_grid_is_identity():
    cfg = make_config(num_ues=1, num_bs_antennas=2, num_subcarriers=1, seed=67)
    scen = generate_scenario(cfg)
    state = initial_state(scen, "SMA")
    ws = ChannelWorkspace(scen)
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    out = brute_force_positions(ws, state, prec, cfg.antenna_spacing)
    assert np.array_equal(out.positions, scen.initial_positions)


def test_brute_force_size_guard():
    cfg = make_config(seed=68)
    scen = generate_scenario(cfg)
    state = initial_state(scen, "SMA")
    ws = ChannelWorkspace(scen)
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    with pytest.raises(SizeLimitError):
        brute_force_positions(ws, state, prec, cfg.antenna_spacing / 2000)


def test_optimizers_deterministic(rng):
    cfg = make_config(seed=69)
    scen = generate_scenario(cfg)
    ws = ChannelWorkspace(scen)
    state = random_feasible_state(scen, rng, scheme="MARA")
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    a, _ = optimize_positions(ws, state, prec, FAST)
    b, _ = optimize_positions(ws, state, prec, FAST)
    assert np.array_equal(a.positions, b.positions)
    r1 = alternating_optimize(ws, "MARA", FAST)
    r2 = alternating_optimize(ChannelWorkspace(scen), "MARA", FAST)
    assert r1.se_trace == r2.se_trace


def quadratic_searches(curvature, linear, start, t0, iters=6):
    """Run `optim._ascend` on the concave f(x) = b.x - sum(a x^2) / 2, a the
    curvature and b the linear term, with plain gradient steps; returns each
    line search's point, direction and first step, read from the chunks that
    `propose` is asked for."""
    a, b = np.asarray(curvature, float), np.asarray(linear, float)
    searches = []

    def objective(x):
        return (x @ b - 0.5 * (a * x * x).sum(axis=-1),)

    def propose(x, d, t, dd):  # one slot: x and d (1, n), the steps t (1, chunk), dd (1,)
        if not searches or not np.array_equal(searches[-1][0], x[0]):
            searches.append((x[0].copy(), d[0].copy(), float(t[0, 0])))
        return x[:, None] + t[..., None] * d[:, None], t * dd[:, None]

    optim._ascend(np.asarray(start, float)[None], t0, optim.LADDER_CHUNKS[False],
                  lambda x: b - a * x, propose, objective,
                  OptimOptions(inner_grad_iters=iters, tol_rel=1e-12))
    return searches


def spectral(previous, current):
    s, y = current[0] - previous[0], current[1] - previous[1]
    return float((s * s).sum()) / abs(float((s * y).sum()))


def test_ascent_starts_later_searches_at_the_spectral_step():
    t0 = 0.05
    searches = quadratic_searches([1.0, 4.0, 9.0], [1.0, -8.0, 4.5], np.zeros(3), t0)
    assert len(searches) >= 3
    assert searches[0][2] == t0
    lo, hi = (t0 * c for c in optim.SPECTRAL_CLAMP)
    for previous, current in zip(searches, searches[1:]):
        step = spectral(previous, current)
        assert lo < step < hi and step != t0
        assert current[2] == pytest.approx(step, rel=1e-12)


def test_spectral_step_is_clamped_above():
    # Curvature 1e-6 gives the spectral step 1e6 t0, past t0 * 2^10.
    searches = quadratic_searches([1e-6, 1e-6], [1e-3, -1e-3], np.zeros(2), 1.0)
    assert len(searches) >= 3 and searches[0][2] == 1.0
    for previous, current in zip(searches, searches[1:]):
        assert spectral(previous, current) > 2.0 ** 10
        assert current[2] == 2.0 ** 10


def test_spectral_step_is_clamped_below():
    # Curvature 1.5 * 2^46 accepts only the ladder's last step t0 * 2^-46
    # first, then gives the spectral step 2^-46 / 1.5, below the clamp.
    curvature = 1.5 * 2.0 ** 46
    searches = quadratic_searches([curvature] * 2, [0.0, 0.0], [1e-7, -1e-7], 1.0)
    assert len(searches) >= 3 and searches[0][2] == 1.0
    assert np.array_equal(searches[1][0], -0.5 * searches[0][0])  # accepted k = 46
    for previous, current in zip(searches, searches[1:]):
        assert spectral(previous, current) < 2.0 ** -46
        assert current[2] == 2.0 ** -46


def test_spectral_step_falls_back_to_t0_when_the_direction_does_not_change():
    # The direction stays b = (1, 0) in the flat coordinate, so s.y = 0.
    t0 = 0.25
    searches = quadratic_searches([0.0, 1.0], [1.0, 0.0], np.zeros(2), t0)
    assert len(searches) == 6
    assert all(np.array_equal(d, [1.0, 0.0]) for _, d, _ in searches)
    assert [t for _, _, t in searches] == [t0] * 6


def rows_with_huge_entries(rng):
    """Rows of K = 9 at magnitudes from 1 to near the largest double, one with a
    huge entry among small ones, and one whose squares overflow only as a sum."""
    rows = [rng.standard_normal(9) * scale for scale in (1.0, 1e140, 2.0 ** 512, 1e200,
                                                         1e300, 1e307)]
    lopsided = rng.standard_normal(9)
    lopsided[4] = -1.7e308
    many_large = np.full(9, 2.0 ** 510)  # each square fits; their sum does not
    return np.array(rows + [lopsided, many_large])


def test_pattern_retraction_returns_unit_rows_along_any_finite_row(rng):
    # Squared as they are, the larger rows overflow: their norm reads inf and
    # the retraction returns zero rows. Tier-1 also fails on the warning.
    c = rows_with_huge_entries(rng)
    peak = np.abs(c).max(axis=1, keepdims=True)
    direction = (c / peak) / np.linalg.norm(c / peak, axis=1, keepdims=True)
    out = optim._retract_patterns(c.copy())
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-15
    assert np.allclose(out, direction, rtol=0.0, atol=1e-15)
    # Rows within the bound keep the plain formula's bits, whatever rows share the call.
    plain = c[:2]
    assert np.array_equal(optim._retract_patterns(c.copy())[:2],
                          plain / np.sqrt(np.add.reduce(plain * plain, -1, keepdims=True)))


def test_sum_squares_reads_inf_only_for_slices_past_the_bound(rng):
    # A slice of n entries is read as inf once one exceeds 2^500 / sqrt(n); below
    # that its squares sum as they always did, and no square or sum overflows.
    rows = rows_with_huge_entries(rng)
    stacked = np.stack([rows[[0, 1, 0]], rows[[0, 2, 1]], rows[[7, 0, 0]]])  # (3, 3, 9)
    sums = optim._sum_squares(stacked, (1, 2))
    assert sums[0] == np.add.reduce(stacked[0] * stacked[0], (0, 1))
    assert np.isinf(sums[1:]).all()
    plain = rows[:2]
    assert np.array_equal(optim._sum_squares(rows, (-1,))[:2], np.add.reduce(plain * plain, -1))
    assert np.isinf(optim._sum_squares(rows, (-1,))[2:]).all()
    # 48 entries just inside the bound: their squares sum to 2^1000, with no overflow.
    edge = np.full((2, 3, 16), 2.0 ** 500 / math.sqrt(48))
    assert np.array_equal(optim._sum_squares(edge, (1, 2)), np.add.reduce(edge * edge, (1, 2)))
    edge[1, 2, 15] = np.nextafter(edge[1, 2, 15], np.inf)
    assert optim._sum_squares(edge, (1, 2))[1] == np.inf
