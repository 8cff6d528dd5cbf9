"""Reference forms that only the tests use: each evaluates the model one entry, one
UE or one candidate at a time, for the stacked kernels in `mara_sim` to be checked
against, and the central differences that the analytic gradients are checked against."""

import math

import numpy as np

from mara_sim.channel import AntennaState, ChannelWorkspace, project_to_movement_region
from mara_sim.checks import se_gradients
from mara_sim.errors import ContractError
from mara_sim.se import PrecoderSet, sum_se
from mara_sim.shod import build_basis, evaluate_basis


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


def workspace_arrays_loop(scenario):
    """`ChannelWorkspace`'s omega (U, L, K), tx_wave_vectors (U, L, 3) and env (U, L, G),
    built one UE at a time from its row of the path table: its departure angles and
    basis responses, its receive phases, and its delay-adjusted gains."""
    basis = build_basis(scenario.config.shod_max_degree)
    wavenumber = 2.0 * np.pi / scenario.config.wavelength
    paths, freqs = scenario.paths, scenario.subcarrier_frequencies
    U, L = paths.gains.shape
    omega, tx = np.zeros((U, L, basis.size)), np.zeros((U, L, 3))
    env = np.zeros((U, L, freqs.size), dtype=np.complex128)
    for u in range(U):
        k = paths.tx_wave_vectors[u]
        theta = np.arccos(np.clip(k[:, 2], -1.0, 1.0))
        phi = np.mod(np.arctan2(k[:, 1], k[:, 0]), 2.0 * np.pi)
        omega[u] = evaluate_basis(basis.max_degree, theta, phi)
        tx[u] = k
        a = np.exp(-1j * wavenumber * (paths.rx_wave_vectors[u] @ scenario.ue_positions[u]))
        x = paths.gains[u][:, None] * np.exp(
            -2j * np.pi * paths.delays[u][:, None] * freqs[None, :])
        env[u] = a[:, None] * x
    return omega, tx, env


def pattern_gain(basis, alpha: np.ndarray, theta, phi):
    """Pattern response sum_k alpha_k omega_k(theta, phi)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (basis.size,):
        raise ContractError(f"alpha must have shape ({basis.size},), got {alpha.shape}")
    return evaluate_basis(basis.max_degree, theta, phi) @ alpha


def brute_force_positions_loop(ws, state, precoders, grid_step: float) -> AntennaState:
    """`checks.brute_force_positions` scored one `sum_se` call per candidate: each
    antenna in index order takes the first candidate of strictly greatest SE, the
    incoming position first, then the grid in ascending index."""
    cfg = ws.config
    n = int(math.floor(cfg.movement_radius / grid_step))
    axis = np.arange(-n, n + 1, dtype=np.float64) * grid_step
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    offsets = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    offsets = offsets[np.linalg.norm(offsets, axis=1) <= cfg.movement_radius]
    pattern = ws.patterns(state.coefficients)
    positions = project_to_movement_region(ws, state.positions).copy()
    for m in range(cfg.num_bs_antennas):
        candidates = np.vstack([positions[m][None, :],
                                ws.initial_positions[m] + offsets])
        best_idx, best_f = 0, -np.inf
        trial = positions.copy()
        for idx in range(candidates.shape[0]):
            trial[m] = candidates[idx]
            f = sum_se(ws.tensor(ws.phases(trial), pattern), precoders.w,
                       cfg.noise_power_w)
            if f > best_f:
                best_idx, best_f = idx, f
        positions[m] = candidates[best_idx]
    return AntennaState(positions, state.coefficients.copy(), state.scheme)


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
