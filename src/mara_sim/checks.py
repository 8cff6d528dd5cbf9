"""Reference forms and invariant checks for `mara-sim check`/`oracle` and the tests.

The reference forms (`ecsi`, the grid search `brute_force_positions` and the basis
quadratures `pattern_power` and `gram_matrix`) evaluate the model entry by entry
or by enumeration; the solver never calls them, and forms that only the tests use
live under `tests/`. `se_gradients` runs the solver's own gradient kernels at one
state, which the Taylor test (`taylor_remainders`, `taylor_order`) checks. A NaN
anywhere makes a check's value NaN, so it fails its bound (`error < bound`, `order > 1.6`).
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


def ecsi(paths: PathSet, u: int, omega: np.ndarray, position: np.ndarray,
         ue_position: np.ndarray, frequency_hz: float, wavelength: float) -> np.ndarray:
    """Environment part of one channel coefficient of UE u: h = ecsi^H alpha.

    Returns the complex K-vector q with q^H = (a ⊙ x ⊙ b)^T Omega, from row u of the
    path table and UE u's pattern responses Omega (L, K): a = exp(-j k k_rx . q) and
    b = exp(-j k k_tx . p) are the receive and transmit steering factors, k = 2 pi /
    lambda, and x the gains with the delay phase exp(-j 2 pi tau f) folded in. The
    receive antenna is a fixed isotropic element, so no receive-pattern factor appears.
    """
    L = paths.gains.shape[1]
    omega = np.asarray(omega, dtype=np.float64)
    if omega.ndim != 2 or omega.shape[0] != L:
        raise ContractError(f"omega must have shape ({L}, K), got {omega.shape}")
    k = 2.0 * np.pi / wavelength
    a = np.exp(-1j * (k * (paths.rx_wave_vectors[u] @ np.asarray(ue_position))))
    b = np.exp(-1j * (k * (paths.tx_wave_vectors[u] @ np.asarray(position))))
    x = paths.gains[u] * np.exp(-2j * np.pi * paths.delays[u] * frequency_hz)
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
    errors, omega = [], build_omega(ws.basis, scenario.paths)
    for u, ue_position in enumerate(scenario.ue_positions):
        for m, (position, alpha) in enumerate(zip(state.positions, state.coefficients)):
            for g, f in enumerate(scenario.subcarrier_frequencies):
                q = ecsi(scenario.paths, u, omega[u], position, ue_position, f,
                         scenario.config.wavelength)
                errors.append(abs(h[u, m, g] - np.conj(q) @ alpha))
    return float(np.max(errors))


TAYLOR_STEPS = 2.0 ** -np.arange(4, 20)


def taylor_remainders(ws: ChannelWorkspace, state: AntennaState, precoders, rng):
    """The Taylor test (Farrell, Ham, Funke & Rognes, SIAM J. Sci. Comput. 35(4), 2013)
    of `se_gradients`: r(h) = |f(x + h v) - f(x) - h <g, v>| falls as h^2 for the
    gradient g of f at x, and only as h for a wrong one. Per block, positions then
    patterns, v is a unit direction drawn from rng (times lambda for positions), and
    f(x) and its steps are scored in one stacked `sum_se` call. Returns, per block,
    (r at each of TAYLOR_STEPS, the rounding floor 64 eps |f(x)|, <g, v>)."""
    x, grads = (state.positions, state.coefficients), se_gradients(ws, state, precoders)
    vs = [v / np.linalg.norm(v) for v in map(rng.standard_normal, (g.shape for g in grads))]
    vs[0] *= ws.config.wavelength
    out = []
    for block, (g, v) in enumerate(zip(grads, vs)):
        point = list(x)
        point[block] = np.concatenate([x[block][None], x[block] + TAYLOR_STEPS[:, None, None] * v])
        f = sum_se(ws.tensor(ws.phases(point[0]), ws.patterns(point[1])), precoders.w,
                   ws.config.noise_power_w)
        slope = float(np.sum(g * v))
        out.append((np.abs(f[1:] - f[0] - TAYLOR_STEPS * slope),
                    64 * np.finfo(float).eps * abs(f[0]), slope))
    return out


def taylor_order(r: np.ndarray, floor: float) -> float:
    """The order log2(r(h) / r(h/2)) of the last pair of remainders with both above
    the floor; a gradient passes when it exceeds 1.6. It is inf when no remainder
    lies above the floor, -inf when none lies in such a pair, and NaN when any is NaN."""
    if np.isnan(r).any():
        return math.nan
    above = r > floor
    pairs = np.flatnonzero(above[:-1] & above[1:])
    if pairs.size:
        return math.log2(r[pairs[-1]] / r[pairs[-1] + 1])
    return -math.inf if above.any() else math.inf


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
    q = ecsi(scenario.paths, 0, build_omega(ws.basis, scenario.paths)[0],
             scenario.initial_positions[0], scenario.ue_positions[0],
             scenario.subcarrier_frequencies[0], scenario.config.wavelength)
    best = float(np.linalg.eigvalsh(np.real(np.outer(np.conj(q), q)))[-1])
    return _gap(best, abs(np.conj(q) @ out.coefficients[0]) ** 2)
