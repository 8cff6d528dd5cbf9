"""Reference forms that only the tests use: each evaluates the model one entry at a
time, for the stacked kernels in `mara_sim` to be checked against."""

import math

import numpy as np

from mara_sim.channel import AntennaState, project_to_movement_region
from mara_sim.errors import ContractError
from mara_sim.se import PrecoderSet, sum_se
from mara_sim.shod import evaluate_basis


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
