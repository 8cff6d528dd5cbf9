"""Per-user SINR and sum spectral efficiency.

The SINR convention uses the intended user's channel against the other users'
precoders (standard downlink broadcast form): the interference at user u on
subcarrier g is sum over u' != u of |h_{u,g}^H w_{u',g}|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

_LN2 = float(np.log(2.0))


@dataclass
class PrecoderSet:
    """Per-subcarrier digital precoding matrices, stacked as (G, M, U)."""

    w: np.ndarray

    @property
    def total_power(self) -> float:
        return float(np.sum(np.abs(self.w) ** 2))

    def copy(self) -> "PrecoderSet":
        return PrecoderSet(self.w.copy())


def sinr(h: np.ndarray, w: np.ndarray, u: int, g: int, noise_power: float) -> float:
    """SINR of user u on subcarrier g, for h (U, M, G) and w (G, M, U)."""
    U, _, G = h.shape
    if not (0 <= u < U) or not (0 <= g < G):
        raise ContractError(f"index (u={u}, g={g}) out of range for (U={U}, G={G})")
    gains = h[u, :, g] @ w[g]
    power = np.abs(gains) ** 2
    interference = power.sum() - power[u]
    return float(power[u] / (interference + noise_power))


def sum_se_arrays(h: np.ndarray, w: np.ndarray, noise_power: float):
    """Total spectral efficiency: sum over g and u of log2(1 + SINR), bits/s/Hz,
    for channel coefficients h (..., U, M, G) and precoders w (G, M, U).

    Returns a float for one channel tensor h (U, M, G), and an array of
    shape (B,) for a batch of candidate tensors h (B, U, M, G).
    """
    gains = np.einsum("...umg,gmv->...guv", h, w)
    power = gains.real ** 2 + gains.imag ** 2
    signal = np.diagonal(power, axis1=-2, axis2=-1)
    se = np.log1p(signal / (power.sum(axis=-1) - signal + noise_power))
    if se.ndim == 2:
        return float(np.sum(se) / _LN2)
    return se.reshape(se.shape[0], -1).sum(axis=1) / _LN2

