import math

import numpy as np
import pytest
from scipy.special import sph_harm_y

from mara_sim.errors import ContractError
from mara_sim.scenario import PathSet
from mara_sim.shod import build_basis, build_omega, evaluate_basis
from mara_sim.checks import gram_matrix, pattern_power

from reference_forms import pattern_gain

ISO = 1.0 / math.sqrt(4.0 * math.pi)


def reference_harmonic(ell, m, theta, phi):
    """Independent real-harmonic evaluation via scipy's complex harmonics."""
    if m == 0:
        return np.real(sph_harm_y(ell, 0, theta, phi))
    if m > 0:
        return math.sqrt(2.0) * np.real(sph_harm_y(ell, m, theta, phi))
    return math.sqrt(2.0) * np.imag(sph_harm_y(ell, -m, theta, phi))


def unit_gain_paths(k_tx):
    """A path table whose transmit wave vectors are k_tx (U, L, 3), gains 1, delays 0."""
    shape = np.shape(k_tx)[:-1]
    return PathSet(gains=np.ones(shape), tx_wave_vectors=k_tx, rx_wave_vectors=k_tx,
                   delays=np.zeros(shape))


def test_degree_zero_is_normalized_constant(rng):
    basis = build_basis(0)
    assert basis.size == 1
    theta = rng.uniform(0, np.pi, 50)
    phi = rng.uniform(0, 2 * np.pi, 50)
    values = evaluate_basis(basis.max_degree, theta, phi)[:, 0]
    assert np.allclose(values, ISO, atol=1e-14)
    assert values[0] == pytest.approx(0.28209, abs=1e-5)


def test_basis_is_built_once_per_degree_and_read_only():
    basis = build_basis(3)
    assert build_basis(3) is basis
    assert build_basis(2) is not basis
    for array in (basis.weights, basis.node_values):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_basis_size_is_squared_degree_plus_one():
    assert build_basis(2).size == 9
    assert build_basis(3).size == 16


def test_gram_matrix_is_identity_n3():
    basis = build_basis(3)
    gram = gram_matrix(basis)
    assert np.max(np.abs(gram - np.eye(16))) < 1e-8


@pytest.mark.parametrize("degree", range(7))
def test_gram_matrix_identity_up_to_degree_six(degree):
    basis = build_basis(degree)
    gram = gram_matrix(basis)
    assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-8


def test_values_match_scipy_reference(rng):
    theta = np.concatenate([rng.uniform(0, np.pi, 40), [0.0, np.pi]])
    phi = np.concatenate([rng.uniform(0, 2 * np.pi, 40), [0.3, 1.1]])
    values = evaluate_basis(6, theta, phi)
    k = 0
    for ell in range(7):
        for m in range(-ell, ell + 1):
            ref = reference_harmonic(ell, m, theta, phi)
            assert np.max(np.abs(values[:, k] - ref)) < 1e-12, (ell, m)
            k += 1


def test_pattern_gain_isotropic_everywhere(rng):
    basis = build_basis(0)
    for _ in range(10):
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        assert pattern_gain(basis, np.array([1.0]), theta, phi) == pytest.approx(ISO, abs=1e-15)


def test_pattern_gain_zero_vector(rng):
    basis = build_basis(2)
    theta = rng.uniform(0, np.pi, 20)
    phi = rng.uniform(0, 2 * np.pi, 20)
    assert np.all(pattern_gain(basis, np.zeros(9), theta, phi) == 0.0)


def test_pattern_gain_matches_term_by_term_sum(rng):
    basis = build_basis(2)
    alpha = rng.standard_normal(9)
    for _ in range(100):
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        direct = 0.0
        k = 0
        for ell in range(3):
            for m in range(-ell, ell + 1):
                direct += alpha[k] * float(reference_harmonic(ell, m, theta, phi))
                k += 1
        assert pattern_gain(basis, alpha, theta, phi) == pytest.approx(direct, abs=1e-12)


def test_pattern_gain_dimension_mismatch():
    basis = build_basis(1)
    with pytest.raises(ContractError):
        pattern_gain(basis, np.ones(9), 0.1, 0.2)


def test_pattern_power_parseval(rng):
    basis = build_basis(3)
    for _ in range(200):
        alpha = rng.standard_normal(basis.size)
        alpha /= np.linalg.norm(alpha)
        assert abs(pattern_power(basis, alpha) - 1.0) < 1e-8


def test_pattern_power_quadratic_scaling(rng):
    basis = build_basis(2)
    alpha = rng.standard_normal(9)
    base = pattern_power(basis, alpha)
    for c in (0.5, 2.0, 3.0):
        assert pattern_power(basis, c * alpha) == pytest.approx(c * c * base, rel=1e-12)


def test_pattern_power_constant_pattern():
    basis = build_basis(0)
    assert pattern_power(basis, np.array([1.0])) == pytest.approx(1.0, abs=1e-12)


def test_build_omega_at_pole():
    basis = build_basis(2)
    omega = build_omega(basis, unit_gain_paths([[(0.0, 0.0, 1.0)]]))
    expected = evaluate_basis(basis.max_degree, 0.0, 0.0)
    assert np.allclose(omega[0, 0], expected, atol=1e-13)


def test_build_omega_shape(rng):
    basis = build_basis(1)
    k = rng.standard_normal((2, 3, 3))
    k /= np.linalg.norm(k, axis=-1, keepdims=True)
    assert build_omega(basis, unit_gain_paths(k)).shape == (2, 3, 4)


def test_omega_alpha_reproduces_pattern_gain(rng):
    basis = build_basis(2)
    k = rng.standard_normal((2, 5, 3))
    k /= np.linalg.norm(k, axis=-1, keepdims=True)
    omega = build_omega(basis, unit_gain_paths(k))
    alpha = rng.standard_normal(9)
    values = omega @ alpha
    for u in range(2):
        for i in range(5):
            theta = math.acos(k[u, i, 2])
            phi = math.atan2(k[u, i, 1], k[u, i, 0]) % (2 * math.pi)
            assert values[u, i] == pytest.approx(pattern_gain(basis, alpha, theta, phi),
                                                 abs=1e-12)


def test_degree_zero_pattern_angle_independent(rng):
    basis = build_basis(0)
    theta = rng.uniform(0, np.pi, 1000)
    phi = rng.uniform(0, 2 * np.pi, 1000)
    values = pattern_gain(basis, np.array([1.0]), theta, phi)
    assert values.max() - values.min() < 1e-14
