"""The effective channel, and from its SINR terms the sum spectral efficiency and
that sum's chain-rule weights (`checks.sinr` is the per-entry reference form).

The SINR convention uses the intended user's channel against the other users'
precoders (standard downlink broadcast form): the interference at user u on
subcarrier g is sum over u' != u of |h_{u,g}^H w_{u',g}|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_LN2 = float(np.log(2.0))


@dataclass
class PrecoderSet:
    """Per-subcarrier digital precoding matrices, stacked as (G, M, U)."""

    w: np.ndarray

    @property
    def total_power(self) -> float:
        return float(np.sum(np.abs(self.w) ** 2))


def effective_channel(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Effective channel gains[..., g, u, v] = sum_m h[..., u, m, g] w[g, m, v], (..., G, U, U).

    With two or more UEs, the candidates and UEs fold into the rows of one
    (G, B*U, M) @ (G, M, U) matmul over subcarriers, returned C-ordered so a
    stack reduces in the same order as its slices. One UE stays on einsum:
    its single-slice product is a vector dot, which numpy hands to BLAS with
    other rounding than the stacked call's loop.
    """
    *lead, U, M, G = h.shape
    if U == 1:
        return np.einsum("...umg,gmv->...guv", h, w)
    gains = (h.reshape(-1, M, G).transpose(2, 0, 1) @ w).reshape(G, -1, U, U)
    return np.ascontiguousarray(gains.transpose(1, 0, 2, 3)).reshape(*lead, G, U, U)


def _sinr_terms(gains: np.ndarray, noise_power: float):
    """Signal and interference plus noise (..., G, U) from gains (..., G, U, U)."""
    power = gains.real ** 2 + gains.imag ** 2
    signal = power.diagonal(0, -2, -1)
    return signal, power.sum(axis=-1) - signal + noise_power


def sum_se_arrays(gains: np.ndarray, noise_power: float):
    """Total spectral efficiency: sum over g and u of log2(1 + SINR), bits/s/Hz, of
    the effective channel gains (..., G, U, U): a float for one channel's gains
    (G, U, U), and an array of the leading shape for a stack of them.
    """
    signal, rest = _sinr_terms(gains, noise_power)
    se = np.log1p(signal / rest)
    # One reduction for both forms, so a stacked call equals its per-slice calls bitwise.
    total = se.sum(axis=(-2, -1)) / _LN2
    return float(total) if se.ndim == 2 else total


def chain_weights(gains: np.ndarray, noise_power: float) -> np.ndarray:
    """Weights c * conj(gains) (..., G, U, U), d(sum SE) = sum 2 Re(weights * d gains), with
    c[..., g, u, v] = (1/total at v = u, else 1/total - 1/rest) / ln 2, total = signal + rest."""
    signal, rest = _sinr_terms(gains, noise_power)
    on_diag = (1.0 / _LN2) / (signal + rest)
    weights = np.conj(gains, order="C")
    weights *= (on_diag - (1.0 / _LN2) / rest)[..., None]
    U = gains.shape[-1]  # the diagonal: every (U + 1)-th entry of a C-ordered U x U block
    diagonal = weights.reshape(*gains.shape[:-2], U * U)[..., ::U + 1]
    diagonal[...] = on_diag * np.conj(gains.diagonal(0, -2, -1))
    return weights
