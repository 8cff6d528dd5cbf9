"""Channel coefficients for all four antenna schemes via one factorized path.

Every scheme is evaluated through the same expression
``h[u, m, g] = q(u, m, g)^H alpha_m``, with q the reference form `checks.ecsi`:
fixed-pattern schemes (TFA, SMA) pin alpha to the canonical isotropic
coefficient, fixed-position schemes (TFA, ERA) pin every antenna at its nominal
array location. This keeps the feasible sets nested across schemes and the
comparison on one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .scenario import SCHEME_ORDER, Scenario, _unit_rows
from .shod import build_basis, build_omega, isotropic_coefficients

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
    K = (scenario.config.shod_max_degree + 1) ** 2
    coeffs = np.tile(isotropic_coefficients(K), (scenario.config.num_bs_antennas, 1))
    return AntennaState(scenario.initial_positions.copy(), coeffs, scheme)


def project_to_movement_region(scenario: Scenario | ChannelWorkspace,
                               positions: np.ndarray) -> np.ndarray:
    """Radially clamp each position into its closed per-antenna ball.

    positions has shape (..., M, 3); leading candidate axes are kept. Takes
    a scenario or its workspace, as `initial_state` does.
    """
    offsets = positions - scenario.initial_positions
    radius = scenario.config.movement_radius
    norms = np.sqrt(np.add.reduce(offsets * offsets, -1))
    scale = np.fmin(1.0, radius / np.maximum(norms, 1e-300))
    return scenario.initial_positions + offsets * scale[..., None]


def sample_movement_region(scenario: Scenario | ChannelWorkspace,
                           rng: np.random.Generator) -> np.ndarray:
    """Uniform random positions (M, 3), one in each antenna's movement ball:
    a normal direction, then a cube-root radius. Takes a scenario or its workspace."""
    M = scenario.config.num_bs_antennas
    direction = _unit_rows(rng.standard_normal((M, 3)))
    frac = np.cbrt(rng.uniform(0.0, 1.0, (M, 1)))
    return scenario.initial_positions + scenario.config.movement_radius * frac * direction


def sample_unit_spheres(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform random rows on the unit sphere, shape (M, K)."""
    return _unit_rows(rng.standard_normal(shape))


def validate_state(scenario: Scenario | ChannelWorkspace, state: AntennaState,
                   scheme: str | None = None) -> None:
    """Check state invariants for its scheme; raises ContractError on violation.
    Takes a scenario or its workspace, as `initial_state` does."""
    if scheme is not None and scheme != state.scheme:
        raise ContractError(f"state is tagged {state.scheme!r}, expected {scheme!r}")
    scheme = state.scheme
    if scheme not in SCHEME_ORDER:
        raise ContractError(f"unknown scheme {scheme!r}")
    cfg = scenario.config
    M = cfg.num_bs_antennas
    K = (cfg.shod_max_degree + 1) ** 2
    if state.positions.shape != (M, 3):
        raise ContractError(f"positions must have shape ({M}, 3)")
    if state.coefficients.shape != (M, K):
        raise ContractError(f"coefficients must have shape ({M}, {K})")
    for name in ("positions", "coefficients"):
        if not np.all(np.isfinite(getattr(state, name))):
            raise ContractError(f"{name} must be finite")
    d = cfg.antenna_spacing
    offsets = np.linalg.norm(state.positions - scenario.initial_positions, axis=1)
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
        pinned = np.tile(isotropic_coefficients(K), (M, 1))
        if np.max(np.abs(state.coefficients - pinned)) > 1e-10:
            raise ContractError(f"patterns must be the isotropic coefficient for {scheme}")


class ChannelWorkspace:
    """Precomputed per-scenario factors for fast channel/gradient evaluation.

    Holds, stacked over UEs: the pattern-response matrices omega (U, L, K),
    the transmit wave vectors (U, L, 3), and the position/pattern-independent
    path factors env[u, i, g] = a_i * gains_i * exp(-j 2 pi tau_i f_g) of
    shape (U, L, G), a_i being the receive phase exp(-j k k_rx . q_u). L is the
    largest path count of any UE; a UE with fewer paths is zero-padded in
    omega and env, so its padding paths contribute exactly 0.

    The solver's one handle on a problem, it also keeps the scenario's `config`
    and `initial_positions`: all that the solver reads of a scenario.
    """

    def __init__(self, scenario: Scenario):
        self.config = scenario.config
        self.initial_positions = scenario.initial_positions
        self.basis = build_basis(scenario.config.shod_max_degree)
        self.wavenumber = 2.0 * np.pi / scenario.wavelength
        U, K = len(scenario.path_sets), self.basis.size
        L = max(ps.num_paths for ps in scenario.path_sets)
        freqs = scenario.subcarrier_frequencies
        self.omega = np.zeros((U, L, K))
        self.tx_wave_vectors = np.zeros((U, L, 3))
        self.env = np.zeros((U, L, freqs.size), dtype=np.complex128)
        for u, ps in enumerate(scenario.path_sets):
            n = ps.num_paths
            self.omega[u, :n] = build_omega(self.basis, ps)
            self.tx_wave_vectors[u, :n] = ps.tx_wave_vectors
            a = np.exp(-1j * self.wavenumber * (ps.rx_wave_vectors @ scenario.ue_positions[u]))
            x = ps.gains[:, None] * np.exp(-2j * np.pi * ps.delays[:, None] * freqs[None, :])
            self.env[u, :n] = a[:, None] * x
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
        # Pattern first: phases first made glibc trim the heap top on every call.
        pattern = self.patterns(state.coefficients)
        return self.tensor(self.phases(state.positions), pattern)
