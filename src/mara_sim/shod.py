"""Orthonormal radiation-pattern basis built from real spherical harmonics.

A pattern f(theta, phi) is represented by a real coefficient vector alpha of
length K = (N+1)^2 against the basis {omega_k}; the basis is orthonormal under
integration over the sphere, so the radiated-power normalization
``integral |f|^2 sin(theta) dtheta dphi = 1`` is exactly ``||alpha||^2 = 1``.
`evaluate_basis` computes the harmonics by the Legendre recurrence in degree.

The quadrature rule is Gauss-Legendre in cos(theta) crossed with a uniform
(trapezoid) azimuth grid. Both factors are exact for products of two basis
functions up to degree N, which makes the orthonormality and Parseval checks
sharp to rounding error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .scenario import PathSet, _frozen


@dataclass(frozen=True)
class BasisSet:
    """Real spherical harmonics up to max_degree, with a product quadrature rule.

    Basis functions are flattened in (degree, order) order: for each degree
    l = 0..N the orders m = -l..l, so index k = l^2 + l + m.
    """

    max_degree: int
    weights: np.ndarray       # (n_q,) includes the sin(theta) surface factor
    node_values: np.ndarray   # (n_q, K) basis evaluated at the nodes

    @property
    def size(self) -> int:
        """K = (N+1)^2."""
        return (self.max_degree + 1) ** 2


@functools.lru_cache(maxsize=8)
def build_basis(max_degree: int) -> BasisSet:
    """Construct the orthonormal basis and its quadrature rule.

    Node counts are 2(N+1) Gauss-Legendre polar nodes and 2(2N+1) uniform
    azimuth nodes, enough to integrate products of two degree-N harmonics
    exactly. Memoized per degree, as a BasisSet and its arrays are read-only.
    """
    if max_degree < 0:
        raise ContractError("max_degree must be >= 0")
    n_polar = 2 * (max_degree + 1)
    n_azimuth = 2 * (2 * max_degree + 1)
    x, w = np.polynomial.legendre.leggauss(n_polar)
    theta = np.arccos(x)
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    theta_grid = np.repeat(theta, n_azimuth)
    phi_grid = np.tile(phi, n_polar)
    weights = np.repeat(w, n_azimuth) * (2.0 * np.pi / n_azimuth)
    return BasisSet(
        max_degree=max_degree,
        weights=_frozen(weights, np.float64),
        node_values=_frozen(evaluate_basis(max_degree, theta_grid, phi_grid), np.float64),
    )


def evaluate_basis(max_degree: int, theta, phi) -> np.ndarray:
    """Real spherical harmonics Y_lm(theta, phi), orthonormalized on the sphere.

    Y_l0 = P_l^0(cos theta);  for m > 0, Y_lm = sqrt(2) P_l^m(cos theta) cos(m phi)
    and Y_l,-m = sqrt(2) P_l^m(cos theta) sin(m phi). P_l^m is the fully normalized
    associated Legendre function with the Condon-Shortley phase, from the three-term
    recurrence in degree (DLMF 14.10): P_0^0 = 1/sqrt(4 pi), P_m^m = -sqrt((2m+1)/(2m))
    sin(theta) P_{m-1}^{m-1}, and P_l^m = a_lm (cos(theta) P_{l-1}^m - b_lm P_{l-2}^m)
    for l > m, with a_lm = sqrt((4l^2-1)/(l^2-m^2)), b_lm = sqrt(((l-1)^2-m^2)/(4(l-1)^2-1)).
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, np.float64), np.asarray(phi, np.float64))
    ct = np.cos(theta)
    st = np.sqrt(1.0 - ct * ct)  # from cos(theta): 0 wherever cos(theta) rounds to +-1
    out = np.empty(theta.shape + ((max_degree + 1) ** 2,))
    p_mm = np.full(theta.shape, 1.0 / math.sqrt(4.0 * math.pi))
    for m in range(max_degree + 1):
        columns = ((0, 1.0),)
        if m > 0:
            p_mm = -math.sqrt((2 * m + 1) / (2 * m)) * st * p_mm
            columns = ((m, math.sqrt(2.0) * np.cos(m * phi)),
                       (-m, math.sqrt(2.0) * np.sin(m * phi)))
        p_prev, p = 0.0, p_mm
        for ell in range(m, max_degree + 1):
            if ell > m:
                a = math.sqrt((4 * ell * ell - 1) / (ell * ell - m * m))
                b = math.sqrt(((ell - 1) ** 2 - m * m) / (4 * (ell - 1) ** 2 - 1))
                p_prev, p = p, a * (ct * p - b * p_prev)
            for offset, factor in columns:  # column k = l^2 + l + (+-m)
                out[..., ell * ell + ell + offset] = p * factor
    return out


def departure_angles(paths: PathSet) -> tuple[np.ndarray, np.ndarray]:
    """Polar/azimuth departure angles (U, L) of each path's transmit wave vector.

    theta = arccos(k_z), phi = atan2(k_y, k_x) mapped to [0, 2 pi).
    """
    k = paths.tx_wave_vectors
    theta = np.arccos(np.clip(k[..., 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(k[..., 1], k[..., 0]), 2.0 * np.pi)
    return theta, phi


def build_omega(basis: BasisSet, paths: PathSet) -> np.ndarray:
    """Pattern-response matrices of every UE: omega[u, i] is omega(theta_ui, phi_ui),
    shape (U, L, K)."""
    theta, phi = departure_angles(paths)
    return evaluate_basis(basis.max_degree, theta, phi)
