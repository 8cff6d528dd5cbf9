import dataclasses
import warnings

import numpy as np
import pytest

from mara_sim import checks
from mara_sim.scenario import generate_scenario
from mara_sim.shod import build_basis
from mara_sim.channel import AntennaState, ChannelWorkspace, validate_state
from mara_sim.optim import OptimOptions, digital_precoder

from conftest import make_config
from reference_forms import _rel_err, fd_gradient, gradient_errors

FAST = OptimOptions(inner_grad_iters=5, restarts=1, seed=0)


def mara_instance(rng, **overrides):
    cfg = make_config(**overrides)
    ws = ChannelWorkspace(generate_scenario(cfg))
    state = checks.random_feasible_state(ws, rng)
    return ws, state, digital_precoder(ws.state_tensor(state), cfg.total_power_w,
                                       cfg.noise_power_w)


def with_nan(a):
    a = a.copy()
    a.flat[0] = np.nan
    return a


def one_by_one(seed):
    return generate_scenario(make_config(num_ues=1, num_bs_antennas=1,
                                         num_subcarriers=1, num_paths_per_ue=2,
                                         seed=seed))


def test_fd_gradient_of_quadratic(rng):
    c = rng.uniform(0.5, 2.0, (3, 4))
    x = rng.standard_normal((3, 4))
    before = x.copy()
    grad = fd_gradient(lambda y: float(np.sum(c * y * y)), x, 1, 1e-4)
    assert np.max(np.abs(grad - 2 * c[1] * x[1])) < 1e-9
    assert np.array_equal(x, before)


def test_relative_error_of_huge_vectors_does_not_overflow(rng):
    # Gradients at extreme power or noise reach 1e286; the norms' squares would
    # overflow. Scaling by an exact power of two leaves the error as it is.
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _rel_err(a * 2.0 ** 600, b * 2.0 ** 600) == _rel_err(a, b)
        assert _rel_err(a, b) == float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.mark.parametrize("seed, degree, antennas", [(0, 2, 3), (1, 0, 2), (2, 3, 4)])
def test_random_feasible_state_is_feasible(seed, degree, antennas, rng):
    scen = generate_scenario(make_config(seed=seed, shod_max_degree=degree,
                                         num_bs_antennas=antennas))
    validate_state(scen, checks.random_feasible_state(scen, rng), "MARA")


def test_orthonormality_nan(monkeypatch):
    def nan_basis(degree):
        basis = build_basis(degree)
        return dataclasses.replace(basis, weights=with_nan(basis.weights))

    monkeypatch.setattr(checks, "build_basis", nan_basis)
    assert np.isnan(checks.orthonormality_error(2))


def test_parseval_nan(rng):
    basis = build_basis(2)
    nan_basis = dataclasses.replace(basis, node_values=with_nan(basis.node_values))
    assert np.isnan(checks.parseval_error(nan_basis, rng, trials=10))


def test_factorization_nan(rng):
    scen = generate_scenario(make_config())
    state = checks.random_feasible_state(scen, rng)
    nan_state = AntennaState(state.positions, with_nan(state.coefficients), "MARA")
    assert np.isnan(checks.factorization_error(scen, nan_state))


def test_gradient_errors_nan(rng):
    ws, state, prec = mara_instance(rng)
    nan_prec = type(prec)(with_nan(prec.w))
    assert np.all(np.isnan(gradient_errors(ws, state, nan_prec, 1e-6)))


def test_taylor_remainders_nan(rng):
    ws, state, prec = mara_instance(rng)
    nan_prec = type(prec)(with_nan(prec.w))
    assert [np.isnan(checks.taylor_order(r, floor))
            for r, floor, _ in checks.taylor_remainders(ws, state, nan_prec, rng)] == [True, True]


QUADRATIC, LINEAR = 4.0 ** -np.arange(16), 2.0 ** -np.arange(16)


@pytest.mark.parametrize("r, floor, order", [
    (QUADRATIC, 0.0, 2.0),
    (LINEAR, 0.0, 1.0),
    (QUADRATIC, QUADRATIC[6], 2.0),
    (np.r_[QUADRATIC[:8], QUADRATIC[7] * LINEAR[1:9]], 0.0, 1.0),
    (np.full(16, 1e-20), 1e-14, np.inf),
    (np.r_[1.0, 0.0, 1.0, np.zeros(13)], 0.5, -np.inf),
    (np.full(16, np.nan), 1e-14, np.nan),
    (np.r_[QUADRATIC[:15], np.nan], 0.0, np.nan),
], ids=["quadratic", "linear", "floor", "last-pair-linear", "at-rounding", "no-pair",
        "nan", "one-nan"])
def test_taylor_order_reads_the_last_pair_above_the_floor(r, floor, order):
    # A NaN remainder reads NaN, so it fails `order > 1.6` as a slip to order 1 does.
    np.testing.assert_equal(checks.taylor_order(r, floor), order)


def test_position_oracle_gap_nan(monkeypatch):
    monkeypatch.setattr(checks, "brute_force_positions",
                        lambda ws, state, *args: AntennaState(
                            with_nan(state.positions), state.coefficients, state.scheme))
    assert np.isnan(checks.position_oracle_gap(one_by_one(0), FAST, 1e-3))


def test_pattern_oracle_gap_nan(monkeypatch):
    monkeypatch.setattr(checks, "optimize_patterns",
                        lambda ws, state, *args: (AntennaState(
                            state.positions, with_nan(state.coefficients), state.scheme),
                            np.nan))
    assert np.isnan(checks.pattern_oracle_gap(one_by_one(1), FAST))
