"""Reference forms that only the tests use: each evaluates the model one entry at a
time, for the stacked kernels in `mara_sim` to be checked against."""

import math

import numpy as np

from mara_sim.errors import ContractError
from mara_sim.se import PrecoderSet
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
