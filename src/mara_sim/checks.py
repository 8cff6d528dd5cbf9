"""Reference forms and invariant checks for `mara-sim check`/`oracle` and the tests.

The reference forms (`ecsi`, `sinr`, `mrt_precoder`, `brute_force_positions`
and the basis quadratures `pattern_gain`, `pattern_power` and `gram_matrix`)
evaluate the model one entry at a time; the solver never calls them.
`se_gradient_positions` and `se_gradient_patterns` are not reference forms:
they pick antenna m's row of the solver's own gradient kernels, which
`gradient_errors` checks against `fd_gradient`. Each check returns the worst
error it saw, and a NaN anywhere makes that worst error NaN, so it fails any
`error < bound` test. Callers choose the instances, seeds, steps and bounds.
"""

from __future__ import annotations

import math

import numpy as np

from . import optim
from .channel import (MOVABLE_SCHEMES, AntennaState, ChannelWorkspace, initial_state,
                      project_to_movement_region, sample_movement_region,
                      sample_unit_spheres)
from .errors import ContractError, SizeLimitError
from .optim import digital_precoder, optimize_patterns, optimize_positions
from .scenario import PathSet
from .se import PrecoderSet, effective_channel, sum_se_arrays
from .shod import build_basis, build_omega

_BRUTE_FORCE_GUARD = 10_000_000


def tx_steering(path_set: PathSet, position: np.ndarray, wavelength: float) -> np.ndarray:
    """Per-path transmit phase factors exp(-j 2 pi / lambda * k_tx . p)."""
    phase = (2.0 * np.pi / wavelength) * (path_set.tx_wave_vectors @ np.asarray(position))
    return np.exp(-1j * phase)


def rx_steering(path_set: PathSet, ue_position: np.ndarray, wavelength: float) -> np.ndarray:
    """Per-path receive phase factors exp(-j 2 pi / lambda * k_rx . q)."""
    phase = (2.0 * np.pi / wavelength) * (path_set.rx_wave_vectors @ np.asarray(ue_position))
    return np.exp(-1j * phase)


def path_gains(path_set: PathSet, frequency_hz: float) -> np.ndarray:
    """Complex per-path gains with the delay phase folded in at one subcarrier."""
    return path_set.gains * np.exp(-2j * np.pi * path_set.delays * frequency_hz)


def ecsi(path_set: PathSet, omega: np.ndarray, position: np.ndarray,
         ue_position: np.ndarray, frequency_hz: float, wavelength: float) -> np.ndarray:
    """Environment part of one channel coefficient: h = ecsi^H alpha.

    Returns the complex K-vector q with
    q^H = (a ⊙ x ⊙ b)^T Omega, where a/b are the receive/transmit steering
    factors and x the delay-adjusted path gains. The receive antenna is a
    fixed isotropic element, so no receive-pattern factor appears.
    """
    L = path_set.num_paths
    omega = np.asarray(omega, dtype=np.float64)
    if omega.ndim != 2 or omega.shape[0] != L:
        raise ContractError(f"omega must have shape ({L}, K), got {omega.shape}")
    a = rx_steering(path_set, ue_position, wavelength)
    b = tx_steering(path_set, position, wavelength)
    x = path_gains(path_set, frequency_hz)
    return omega.T @ np.conj(a * x * b)


def sinr(h: np.ndarray, w: np.ndarray, u: int, g: int, noise_power: float) -> float:
    """SINR of user u on subcarrier g, for h (U, M, G) and w (G, M, U)."""
    U, _, G = h.shape
    if not (0 <= u < U) or not (0 <= g < G):
        raise ContractError(f"index (u={u}, g={g}) out of range for (U={U}, G={G})")
    gains = h[u, :, g] @ w[g]
    power = np.abs(gains) ** 2
    interference = power.sum() - power[u]
    return float(power[u] / (interference + noise_power))


def mrt_precoder(h: np.ndarray, total_power: float) -> PrecoderSet:
    """Matched-filter precoders for the channel h (U, M, G): columns conj(h[u, :, g])
    with the budget split equally over the nonzero ones."""
    cols = np.conj(np.transpose(h, (2, 1, 0)))  # (G, M, U)
    norms = np.linalg.norm(cols, axis=1)        # (G, U)
    usable = norms > 0
    per_column = total_power / max(int(usable.sum()), 1)
    scale = np.where(usable, math.sqrt(per_column) / np.where(usable, norms, 1.0), 0.0)
    return PrecoderSet(cols * scale[:, None, :])


def pattern_gain(basis, alpha: np.ndarray, theta, phi):
    """Pattern response sum_k alpha_k omega_k(theta, phi)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (basis.size,):
        raise ContractError(f"alpha must have shape ({basis.size},), got {alpha.shape}")
    return basis.evaluate(theta, phi) @ alpha


def pattern_power(basis, alpha: np.ndarray) -> float:
    """Radiated power of the pattern: quadrature of |f|^2 over the sphere.

    Equals ||alpha||^2 up to quadrature rounding (Parseval).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (basis.size,):
        raise ContractError(f"alpha must have shape ({basis.size},), got {alpha.shape}")
    f = basis.node_values @ alpha
    return float(np.dot(basis.weights, f * f))


def gram_matrix(basis) -> np.ndarray:
    """Quadrature of omega_k * omega_k' over the sphere; identity when exact."""
    return basis.node_values.T @ (basis.weights[:, None] * basis.node_values)


def se_gradient_positions(ws: ChannelWorkspace, state: AntennaState, precoders,
                          m: int) -> np.ndarray:
    """Analytic gradient of sum_se with respect to antenna m's position."""
    phases, pattern = ws.phases(state.positions), ws.patterns(state.coefficients)
    gains = effective_channel(ws.tensor(phases, pattern), precoders.w)
    return optim._grad_positions_all(ws, phases, pattern, gains, precoders,
                                     ws.config.noise_power_w)[m]


def se_gradient_patterns(ws: ChannelWorkspace, state: AntennaState, precoders,
                         m: int) -> np.ndarray:
    """Euclidean gradient of sum_se with respect to antenna m's pattern coefficients."""
    phases = ws.phases(state.positions)
    gains = effective_channel(ws.tensor(phases, ws.patterns(state.coefficients)), precoders.w)
    return optim._grad_patterns_all(ws, phases, gains, precoders, ws.config.noise_power_w)[m]


def brute_force_positions(ws: ChannelWorkspace, state: AntennaState, precoders,
                          grid_step: float) -> AntennaState:
    """Coordinate-wise exhaustive position search (test oracle).

    Antennas are processed in index order; each one is moved to the best point
    of a Cartesian grid (spacing grid_step, centered on its nominal position)
    intersected with its movement ball. The incoming position is always a
    candidate, so the result never has lower SE. Ties keep the earliest
    candidate: the incoming position first, then ascending grid index.
    """
    if state.scheme not in MOVABLE_SCHEMES:
        raise ContractError(f"positions are pinned for scheme {state.scheme!r}")
    if grid_step <= 0:
        raise ContractError("grid_step must be positive")
    cfg = ws.config
    radius = cfg.movement_radius
    n = int(math.floor(radius / grid_step))
    lattice = (2 * n + 1) ** 3
    if cfg.num_bs_antennas * lattice > _BRUTE_FORCE_GUARD:
        raise SizeLimitError(
            f"{cfg.num_bs_antennas} x {lattice} grid candidates exceed "
            f"the {_BRUTE_FORCE_GUARD} guard")
    axis = np.arange(-n, n + 1, dtype=np.float64) * grid_step
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    offsets = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    offsets = offsets[np.linalg.norm(offsets, axis=1) <= radius]
    noise, w = cfg.noise_power_w, precoders.w
    pattern = ws.patterns(state.coefficients)
    positions = project_to_movement_region(ws, state.positions).copy()
    for m in range(cfg.num_bs_antennas):
        candidates = np.vstack([positions[m][None, :],
                                ws.initial_positions[m] + offsets])
        best_idx, best_f = 0, -np.inf
        trial = positions.copy()
        for idx in range(candidates.shape[0]):
            trial[m] = candidates[idx]
            f = sum_se_arrays(effective_channel(ws.tensor(ws.phases(trial), pattern), w), noise)
            if f > best_f:
                best_idx, best_f = idx, f
        positions[m] = candidates[best_idx]
    return AntennaState(positions, state.coefficients.copy(), state.scheme)


def orthonormality_error(max_degree: int) -> float:
    """max |Gram - I| over the bases of degree 0..max_degree."""
    return float(np.max([np.max(np.abs(gram_matrix(b) - np.eye(b.size)))
                         for b in map(build_basis, range(max_degree + 1))]))


def parseval_error(basis, rng: np.random.Generator, trials: int = 1000) -> float:
    """max |pattern power - ||alpha||^2| over `trials` standard-normal alphas."""
    alphas = [rng.standard_normal(basis.size) for _ in range(trials)]
    return float(np.max([abs(pattern_power(basis, a) - float(a @ a)) for a in alphas]))


def random_feasible_state(scenario, rng: np.random.Generator) -> AntennaState:
    """A MARA state drawn uniformly: positions in the balls, unit pattern rows.
    Takes a scenario or its workspace."""
    cfg = scenario.config
    positions = sample_movement_region(scenario, rng)
    coefficients = sample_unit_spheres(
        rng, (cfg.num_bs_antennas, (cfg.shod_max_degree + 1) ** 2))
    return AntennaState(positions, coefficients, "MARA")


def factorization_error(scenario, state: AntennaState) -> float:
    """max |h - q^H alpha| over every (u, m, g): h from the scenario's
    workspace, q from `ecsi` on its raw paths."""
    ws = ChannelWorkspace(scenario)
    h = ws.state_tensor(state)
    errors = []
    for u, ps in enumerate(scenario.path_sets):
        omega = build_omega(ws.basis, ps)
        for m, (position, alpha) in enumerate(zip(state.positions, state.coefficients)):
            for g, f in enumerate(scenario.subcarrier_frequencies):
                q = ecsi(ps, omega, position, scenario.ue_positions[u], f,
                         scenario.wavelength)
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
    noise = ws.config.noise_power_w
    positions, coefficients = state.positions, state.coefficients

    def se(pos, coeff):
        h = ws.tensor(ws.phases(pos), ws.patterns(coeff))
        return sum_se_arrays(effective_channel(h, precoders.w), noise)

    pos = _rel_err(se_gradient_positions(ws, state, precoders, m),
                   fd_gradient(lambda p: se(p, coefficients), positions, m,
                               fd_step * ws.config.wavelength))
    pat = _rel_err(se_gradient_patterns(ws, state, precoders, m),
                   fd_gradient(lambda a: se(positions, a), coefficients, m, fd_step))
    return pos, pat


def _rel_err(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.maximum(np.linalg.norm(b), 1e-300))


def _gap(best, achieved) -> float:
    return float((best - achieved) / np.maximum(best, 1e-300))


def position_oracle_gap(scenario, opts, grid_step: float) -> float:
    """Signed relative SE gap of `optimize_positions` below `brute_force_positions`,
    both from the SMA start under its precoder."""
    ws, cfg = ChannelWorkspace(scenario), scenario.config
    state = initial_state(ws, "SMA")
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    opt, _ = optimize_positions(ws, state, prec, opts)
    bf = brute_force_positions(ws, state, prec, grid_step)
    return _gap(*(sum_se_arrays(effective_channel(ws.state_tensor(s), prec.w), cfg.noise_power_w)
                  for s in (bf, opt)))


def pattern_oracle_gap(scenario, opts) -> float:
    """Signed relative gap of antenna 0's optimized pattern gain toward UE 0 on
    subcarrier 0 below the leading eigenvalue of Re(conj(q) q^T); the optimum
    when M = U = G = 1."""
    ws, cfg = ChannelWorkspace(scenario), scenario.config
    state = initial_state(ws, "ERA")
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    out, _ = optimize_patterns(ws, state, prec, opts)
    ps = scenario.path_sets[0]
    q = ecsi(ps, build_omega(ws.basis, ps), scenario.initial_positions[0],
             scenario.ue_positions[0], scenario.subcarrier_frequencies[0],
             scenario.wavelength)
    best = float(np.linalg.eigvalsh(np.real(np.outer(np.conj(q), q)))[-1])
    return _gap(best, abs(np.conj(q) @ out.coefficients[0]) ** 2)
