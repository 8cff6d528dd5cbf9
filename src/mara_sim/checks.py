"""Reference forms and invariant checks for `mara-sim check`/`oracle` and the tests.

The reference forms (`ecsi`, the grid search `brute_force_positions` and the basis
quadratures `pattern_power` and `gram_matrix`) evaluate the model entry by entry
or by enumeration; the solver never calls them, and forms that only the tests use
live under `tests/`. `se_gradients` runs the solver's own gradient kernels at one
state, which `gradient_errors` checks against `fd_gradient`. Each check returns the
worst error it saw, and a NaN anywhere makes it NaN, so it fails any `error < bound`.
"""

from __future__ import annotations

import math

import numpy as np

from . import optim
from .channel import (MOVABLE_SCHEMES, AntennaState, ChannelWorkspace, initial_state,
                      project_to_movement_region, sample_movement_region,
                      sample_unit_spheres)
from .errors import ContractError, SizeLimitError
from .optim import optimize_patterns, optimize_positions
from .scenario import PathSet
from .se import sum_se
from .shod import build_basis, build_omega

_BRUTE_FORCE_GUARD = 10_000_000
_SCORED_ENTRIES = 1 << 18  # bounds rows * M*U*L*G in one stacked sum_se call


def ecsi(path_set: PathSet, omega: np.ndarray, position: np.ndarray,
         ue_position: np.ndarray, frequency_hz: float, wavelength: float) -> np.ndarray:
    """Environment part of one channel coefficient: h = ecsi^H alpha.

    Returns the complex K-vector q with
    q^H = (a ⊙ x ⊙ b)^T Omega, where a = exp(-j k k_rx . q) and b = exp(-j k k_tx . p)
    are the receive and transmit steering factors, k = 2 pi / lambda, and x the path
    gains with the delay phase exp(-j 2 pi tau f) folded in. The receive antenna is
    a fixed isotropic element, so no receive-pattern factor appears.
    """
    L = path_set.num_paths
    omega = np.asarray(omega, dtype=np.float64)
    if omega.ndim != 2 or omega.shape[0] != L:
        raise ContractError(f"omega must have shape ({L}, K), got {omega.shape}")
    k = 2.0 * np.pi / wavelength
    a = np.exp(-1j * (k * (path_set.rx_wave_vectors @ np.asarray(ue_position))))
    b = np.exp(-1j * (k * (path_set.tx_wave_vectors @ np.asarray(position))))
    x = path_set.gains * np.exp(-2j * np.pi * path_set.delays * frequency_hz)
    return omega.T @ np.conj(a * x * b)


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


def se_gradients(ws: ChannelWorkspace, state: AntennaState, precoders):
    """Analytic gradients of sum_se in every antenna position (M, 3) and pattern
    coefficient (M, K), from the solver's one forward pass at state (`optim._scored`)."""
    phases, pattern = ws.phases(state.positions), ws.patterns(state.coefficients)
    _, *terms = optim._scored(ws.tensor(phases, pattern), precoders.w, ws.config.noise_power_w)
    return (optim._grad_positions_all(ws, phases, pattern, *terms, precoders),
            optim._grad_patterns_all(ws, phases, *terms, precoders))


def brute_force_positions(ws: ChannelWorkspace, state: AntennaState, precoders,
                          grid_step: float) -> AntennaState:
    """Coordinate-wise exhaustive position search (test oracle).

    Antennas are processed in index order; each one is moved to the best point
    of a Cartesian grid (spacing grid_step, centered on its nominal position)
    intersected with its movement ball, scored in stacked `sum_se` calls. The
    incoming position is always a candidate, so the result never has lower SE.
    Ties keep the earliest candidate (the incoming position, then ascending grid
    index), and a NaN SE never wins.
    """
    if state.scheme not in MOVABLE_SCHEMES:
        raise ContractError(f"positions are pinned for scheme {state.scheme!r}")
    if grid_step <= 0:
        raise ContractError("grid_step must be positive")
    cfg = ws.config
    n = int(math.floor(cfg.movement_radius / grid_step))
    lattice = (2 * n + 1) ** 3
    if cfg.num_bs_antennas * lattice > _BRUTE_FORCE_GUARD:
        raise SizeLimitError(f"{cfg.num_bs_antennas} x {lattice} grid candidates exceed "
                             f"the {_BRUTE_FORCE_GUARD} guard")
    axis = np.arange(-n, n + 1, dtype=np.float64) * grid_step
    offsets = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    offsets = offsets[np.linalg.norm(offsets, axis=1) <= cfg.movement_radius]
    pattern = ws.patterns(state.coefficients)
    positions = project_to_movement_region(ws, state.positions).copy()
    rows = max(1, _SCORED_ENTRIES // (cfg.num_bs_antennas * ws.env.size))
    for m in range(cfg.num_bs_antennas):
        candidates = np.vstack([positions[m][None, :], ws.initial_positions[m] + offsets])
        best_idx, best_f = 0, -np.inf
        for start in range(0, len(candidates), rows):
            trials = np.repeat(positions[None], len(candidates[start:start + rows]), axis=0)
            trials[:, m] = candidates[start:start + rows]
            se = sum_se(ws.tensor(ws.phases(trials), pattern), precoders.w, cfg.noise_power_w)
            idx = int(np.argmax(np.where(np.isnan(se), -np.inf, se)))
            if se[idx] > best_f:
                best_idx, best_f = start + idx, se[idx]
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
    positions = sample_movement_region(scenario, rng)
    return AntennaState(positions, sample_unit_spheres(scenario, rng), "MARA")


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
                         scenario.config.wavelength)
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


def gradient_errors(ws: ChannelWorkspace, state: AntennaState, precoders,
                    fd_step: float) -> list[tuple[float, float]]:
    """Relative errors of each antenna's analytic (position, pattern) gradients,
    from one `se_gradients` pass, against central differences; the position
    step is fd_step wavelengths."""
    noise = ws.config.noise_power_w
    positions, coefficients = state.positions, state.coefficients

    def se(pos, coeff):
        return sum_se(ws.tensor(ws.phases(pos), ws.patterns(coeff)), precoders.w, noise)

    se_pos, se_pat = (lambda p: se(p, coefficients)), (lambda a: se(positions, a))
    grad_pos, grad_pat = se_gradients(ws, state, precoders)
    step = fd_step * ws.config.wavelength
    return [(_rel_err(grad_pos[m], fd_gradient(se_pos, positions, m, step)),
             _rel_err(grad_pat[m], fd_gradient(se_pat, coefficients, m, fd_step)))
            for m in range(len(positions))]


def _rel_err(a, b) -> float:
    return float(_norm(a - b) / np.maximum(_norm(b), 1e-300))


def _norm(v):
    """The 2-norm of v at an exact power-of-two scale, so no square overflows."""
    exponent = np.frexp(np.max(np.abs(v)))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(v, -exponent)), exponent)


def _gap(best, achieved) -> float:
    return float((best - achieved) / np.maximum(best, 1e-300))


def position_oracle_gap(scenario, opts, grid_step: float) -> float:
    """Signed relative SE gap of `optimize_positions` below `brute_force_positions`,
    both from the SMA start under its precoder."""
    ws, cfg = ChannelWorkspace(scenario), scenario.config
    state = initial_state(ws, "SMA")
    prec, _ = optim._zero_forcing(ws, state)
    opt, _ = optimize_positions(ws, state, prec, opts)
    bf = brute_force_positions(ws, state, prec, grid_step)
    return _gap(*(sum_se(ws.state_tensor(s), prec.w, cfg.noise_power_w) for s in (bf, opt)))


def pattern_oracle_gap(scenario, opts) -> float:
    """Signed relative gap of antenna 0's optimized pattern gain toward UE 0 on
    subcarrier 0 below the leading eigenvalue of Re(conj(q) q^T); the optimum
    when M = U = G = 1."""
    ws = ChannelWorkspace(scenario)
    state = initial_state(ws, "ERA")
    prec, _ = optim._zero_forcing(ws, state)
    out, _ = optimize_patterns(ws, state, prec, opts)
    ps = scenario.path_sets[0]
    q = ecsi(ps, build_omega(ws.basis, ps), scenario.initial_positions[0],
             scenario.ue_positions[0], scenario.subcarrier_frequencies[0],
             scenario.config.wavelength)
    best = float(np.linalg.eigvalsh(np.real(np.outer(np.conj(q), q)))[-1])
    return _gap(best, abs(np.conj(q) @ out.coefficients[0]) ** 2)
