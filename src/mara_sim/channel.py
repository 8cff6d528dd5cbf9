"""Channel coefficients for all four antenna schemes via one factorized path.

Every scheme is evaluated through the same expression
``h[u, m, g] = q(u, m, g)^H alpha_m``, with q the reference form `checks.ecsi`:
fixed-pattern schemes (TFA, SMA) pin alpha to the canonical isotropic
coefficient, fixed-position schemes (TFA, ERA) pin every antenna at its nominal
array location. This keeps the feasible sets nested across schemes and the
comparison on one code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .scenario import SCHEME_ORDER, Scenario, _unit_rows
from .shod import build_basis, build_omega

MOVABLE_SCHEMES = ("SMA", "MARA")
RECONFIGURABLE_SCHEMES = ("ERA", "MARA")


@dataclass
class AntennaState:
    """Decision variables of the transmitter: per-antenna position and pattern."""

    positions: np.ndarray     # (M, 3) meters
    coefficients: np.ndarray  # (M, K) real pattern coefficients, unit rows
    scheme: str

    def retagged(self, scheme: str) -> "AntennaState":
        return AntennaState(self.positions.copy(), self.coefficients.copy(), scheme)


def initial_state(scenario: Scenario | ChannelWorkspace, scheme: str) -> AntennaState:
    """Nominal array positions with the isotropic pattern on every antenna.
    Reads only `config` and `initial_positions`: a scenario or its workspace."""
    if scheme not in SCHEME_ORDER:
        raise ContractError(f"unknown scheme {scheme!r}")
    cfg = scenario.config
    coeffs = np.zeros((cfg.num_bs_antennas, (cfg.shod_max_degree + 1) ** 2))
    coeffs[:, 0] = 1.0  # the constant (degree-0) pattern
    return AntennaState(scenario.initial_positions.copy(), coeffs, scheme)


def project_to_movement_region(scenario: Scenario | ChannelWorkspace,
                               positions: np.ndarray) -> np.ndarray:
    """Radially clamp each position into its closed per-antenna ball.

    positions has shape (..., M, 3); leading candidate axes are kept. A row with
    an infinite coordinate goes onto the sphere along the signs of its infinite
    coordinates. Takes a scenario or its workspace, as `initial_state` does.
    """
    offsets = _squarable(positions - scenario.initial_positions, (-1,))
    radius = scenario.config.movement_radius
    norms = np.sqrt(np.add.reduce(offsets * offsets, -1))
    scale = np.fmin(1.0, radius / np.maximum(norms, 1e-300))
    return scenario.initial_positions + offsets * scale[..., None]


def _squarable(v, axes: tuple) -> np.ndarray:
    """v, each slice over axes free to sum its squares with its direction kept: a slice
    of n entries with one above 2^500 / sqrt(n) is scaled by the power of two that brings
    its largest into [1/2, 1), and one with an infinite entry becomes the signs of those
    entries. Other slices keep their bits, and v itself comes back if none needs either."""
    if not np.abs(v).max() > 2.0 ** 500 / math.sqrt(v.size):  # no slice is past its bound
        return v
    bound = 2.0 ** 500 / math.sqrt(math.prod(v.shape[a] for a in axes))
    infinite = np.isinf(v)
    v = np.where(infinite.any(axes, keepdims=True), np.copysign(infinite, v), v)
    peak = np.abs(v).max(axes, keepdims=True)
    return np.ldexp(v, -np.where(peak > bound, np.frexp(peak)[1], 0))


def sample_movement_region(scenario: Scenario | ChannelWorkspace,
                           rng: np.random.Generator) -> np.ndarray:
    """Uniform random positions (M, 3), one in each antenna's movement ball:
    a normal direction, then a cube-root radius. Takes a scenario or its workspace."""
    M = scenario.config.num_bs_antennas
    direction = _unit_rows(rng.standard_normal((M, 3)))
    frac = np.cbrt(rng.uniform(0.0, 1.0, (M, 1)))
    return scenario.initial_positions + scenario.config.movement_radius * frac * direction


def sample_unit_spheres(scenario: Scenario | ChannelWorkspace,
                        rng: np.random.Generator) -> np.ndarray:
    """Uniform random pattern coefficients (M, K), one unit row per antenna.
    Takes a scenario or its workspace."""
    cfg = scenario.config
    return _unit_rows(rng.standard_normal((cfg.num_bs_antennas,
                                           (cfg.shod_max_degree + 1) ** 2)))


def validate_state(scenario: Scenario | ChannelWorkspace, state: AntennaState,
                   scheme: str | None = None) -> None:
    """Check state against its scheme's `initial_state`, which holds the shapes and
    the pinned parts; raises ContractError on violation. Takes a scenario or its
    workspace, as `initial_state` does."""
    if scheme is not None and scheme != state.scheme:
        raise ContractError(f"state is tagged {state.scheme!r}, expected {scheme!r}")
    scheme = state.scheme
    nominal = initial_state(scenario, scheme)
    for name in ("positions", "coefficients"):
        if getattr(state, name).shape != getattr(nominal, name).shape:
            raise ContractError(f"{name} must have shape {getattr(nominal, name).shape}")
    for name in ("positions", "coefficients"):
        if not np.all(np.isfinite(getattr(state, name))):
            raise ContractError(f"{name} must be finite")
    cfg = scenario.config
    d = cfg.antenna_spacing
    offsets = np.linalg.norm(state.positions - nominal.positions, axis=1)
    if scheme in MOVABLE_SCHEMES:
        if np.any(offsets > cfg.movement_radius + 1e-9 * d):
            raise ContractError("a position lies outside its movement ball")
    else:
        if np.any(offsets > 1e-9 * d):
            raise ContractError(f"positions must stay at the nominal array for {scheme}")
    norms = np.linalg.norm(state.coefficients, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-10):
        raise ContractError("pattern coefficient rows must be unit-norm within 1e-10")
    if scheme not in RECONFIGURABLE_SCHEMES:
        if np.max(np.abs(state.coefficients - nominal.coefficients)) > 1e-10:
            raise ContractError(f"patterns must be the isotropic coefficient for {scheme}")


class ChannelWorkspace:
    """Precomputed per-scenario factors for fast channel/gradient evaluation.

    Holds, stacked over UEs and built from the scenario's path table in one pass:
    the pattern-response matrices omega (U, L, K), the transmit wave vectors
    (U, L, 3), and the position/pattern-independent path factors
    env[u, i, g] = a_ui * gains_ui * exp(-j 2 pi tau_ui f_g) of shape (U, L, G),
    a_ui being the receive phase exp(-j k k_rx . q_u). A zero-gain path has a zero
    env row, so it contributes exactly 0.

    The solver's one handle on a problem, it also keeps the scenario's `config`
    and `initial_positions`: all that the solver reads of a scenario.
    """

    def __init__(self, scenario: Scenario):
        self.config = scenario.config
        self.initial_positions = scenario.initial_positions
        self.basis = build_basis(scenario.config.shod_max_degree)
        self.wavenumber = 2.0 * np.pi / scenario.config.wavelength
        paths, freqs = scenario.paths, scenario.subcarrier_frequencies
        self.omega = build_omega(self.basis, paths)
        self.tx_wave_vectors = paths.tx_wave_vectors
        a = np.exp(-1j * self.wavenumber
                   * (paths.rx_wave_vectors @ scenario.ue_positions[:, :, None])[..., 0])
        self.env = a[..., None] * (paths.gains[..., None] * np.exp(
            -2j * np.pi * paths.delays[..., None] * freqs))
        # (U, 3, L) and (U, K, L) views, so each product is a plain stacked matmul.
        self._tx_t = self.tx_wave_vectors.transpose(0, 2, 1)
        self._omega_t = self.omega.transpose(0, 2, 1)

    def phases(self, positions: np.ndarray) -> np.ndarray:
        """Transmit phases (..., U, M, L) of positions (..., M, 3)."""
        return np.exp(-1j * self.wavenumber * (positions[..., None, :, :] @ self._tx_t))

    def patterns(self, coefficients: np.ndarray) -> np.ndarray:
        """Pattern responses (..., U, M, L) of coefficients (..., M, K)."""
        return coefficients[..., None, :, :] @ self._omega_t

    def tensor(self, phases: np.ndarray, pattern: np.ndarray) -> np.ndarray:
        """Channel coefficients h[..., u, m, g] from the two path factors,
        without feasibility checks; their leading candidate axes broadcast."""
        return (phases * pattern) @ self.env

    def state_tensor(self, state: AntennaState) -> np.ndarray:
        return self.tensor(self.phases(state.positions), self.patterns(state.coefficients))
