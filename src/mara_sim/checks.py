"""Invariant checks shared by `mara-sim check`/`oracle` and the test suites.

Each check returns the worst error it saw, and a NaN anywhere makes that
worst error NaN, so it fails any `error < bound` test. Callers choose the
instances, seeds, steps and bounds.
"""

from __future__ import annotations

import numpy as np

from .channel import (AntennaState, ChannelWorkspace, ecsi, initial_state,
                      sample_movement_region, sample_unit_spheres)
from .optim import (brute_force_positions, digital_precoder, optimize_patterns,
                    optimize_positions, se_gradient_patterns, se_gradient_positions)
from .se import sum_se_arrays
from .shod import build_basis, build_omega, pattern_power


def orthonormality_error(max_degree: int) -> float:
    """max |Gram - I| over the bases of degree 0..max_degree."""
    return float(np.max([np.max(np.abs(b.gram_matrix() - np.eye(b.size)))
                         for b in map(build_basis, range(max_degree + 1))]))


def parseval_error(basis, rng: np.random.Generator, trials: int = 1000) -> float:
    """max |pattern power - ||alpha||^2| over `trials` standard-normal alphas."""
    alphas = [rng.standard_normal(basis.size) for _ in range(trials)]
    return float(np.max([abs(pattern_power(basis, a) - float(a @ a)) for a in alphas]))


def random_feasible_state(scenario, rng: np.random.Generator) -> AntennaState:
    """A MARA state drawn uniformly: positions in the balls, unit pattern rows."""
    cfg = scenario.config
    positions = sample_movement_region(scenario, rng)
    coefficients = sample_unit_spheres(
        rng, (cfg.num_bs_antennas, (cfg.shod_max_degree + 1) ** 2))
    return AntennaState(positions, coefficients, "MARA")


def zf_precoder(h: np.ndarray, config):
    """The ZF + water-filling precoder of the channel h at the config's power and noise."""
    return digital_precoder(h, config.total_power_w, config.noise_power_w)


def factorization_error(ws: ChannelWorkspace, state: AntennaState) -> float:
    """max |h - q^H alpha| over every (u, m, g), with q from `ecsi`."""
    scen = ws.scenario
    h = ws.state_tensor(state)
    errors = []
    for u, ps in enumerate(scen.path_sets):
        omega = build_omega(ws.basis, ps)
        for m, (position, alpha) in enumerate(zip(state.positions, state.coefficients)):
            for g, f in enumerate(scen.subcarrier_frequencies):
                q = ecsi(ps, omega, position, scen.ue_positions[u], f, scen.wavelength)
                errors.append(abs(h[u, m, g] - np.conj(q) @ alpha))
    return float(np.max(errors))


def fd_gradient(f, x: np.ndarray, m: int, step: float) -> np.ndarray:
    """Central difference of f over row m of x; x is not modified."""
    grad = np.empty(x.shape[1])
    for i in range(x.shape[1]):
        plus, minus = x.copy(), x.copy()
        plus[m, i] += step
        minus[m, i] -= step
        grad[i] = f(plus) - f(minus)
    return grad / (2.0 * step)


def gradient_errors(ws: ChannelWorkspace, state: AntennaState, precoders, m: int,
                    fd_step: float) -> tuple[float, float]:
    """Relative errors of antenna m's analytic position and pattern gradients
    against central differences; the position step is fd_step wavelengths."""
    scen = ws.scenario
    noise = scen.config.noise_power_w
    positions, coefficients = state.positions, state.coefficients

    def se(pos, coeff):
        return sum_se_arrays(ws.tensor(pos, coeff), precoders.w, noise)

    pos = _rel_err(se_gradient_positions(scen, state, precoders, m, ws=ws),
                   fd_gradient(lambda p: se(p, coefficients), positions, m,
                               fd_step * scen.wavelength))
    pat = _rel_err(se_gradient_patterns(scen, state, precoders, m, ws=ws),
                   fd_gradient(lambda a: se(positions, a), coefficients, m, fd_step))
    return pos, pat


def _rel_err(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.maximum(np.linalg.norm(b), 1e-300))


def _gap(best, achieved) -> float:
    return float((best - achieved) / np.maximum(best, 1e-300))


def position_oracle_gap(scenario, opts, grid_step: float) -> float:
    """Signed relative SE gap of `optimize_positions` below `brute_force_positions`,
    both from the SMA start under its precoder."""
    ws = ChannelWorkspace(scenario)
    state = initial_state(scenario, "SMA")
    prec = zf_precoder(ws.state_tensor(state), scenario.config)
    noise = scenario.config.noise_power_w
    opt = optimize_positions(scenario, state, prec, opts, ws)
    bf = brute_force_positions(scenario, state, prec, grid_step)
    return _gap(sum_se_arrays(ws.state_tensor(bf), prec.w, noise),
                sum_se_arrays(ws.state_tensor(opt), prec.w, noise))


def pattern_oracle_gap(scenario, opts) -> float:
    """Signed relative gap of antenna 0's optimized pattern gain toward UE 0 on
    subcarrier 0 below the leading eigenvalue of Re(conj(q) q^T); the optimum
    when M = U = G = 1."""
    ws = ChannelWorkspace(scenario)
    state = initial_state(scenario, "ERA")
    prec = zf_precoder(ws.state_tensor(state), scenario.config)
    out = optimize_patterns(scenario, state, prec, opts, ws)
    ps = scenario.path_sets[0]
    q = ecsi(ps, build_omega(ws.basis, ps), scenario.initial_positions[0],
             scenario.ue_positions[0], scenario.subcarrier_frequencies[0],
             scenario.wavelength)
    best = float(np.linalg.eigvalsh(np.real(np.outer(np.conj(q), q)))[-1])
    return _gap(best, abs(np.conj(q) @ out.coefficients[0]) ** 2)
