"""Problem-instance construction: config ingestion, seeded random scenarios, subcarrier grid.

A Scenario is a fully deterministic function of (SystemConfig, seed): the
multipath geometry, complex path gains, delays and UE placement are all drawn
from one seeded generator, so identical configs reproduce bit-identical
instances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError

SPEED_OF_LIGHT = 299_792_458.0

# Canonical scheme order; also the warm-start dependency order used by optim.
SCHEME_ORDER = ("TFA", "SMA", "ERA", "MARA")

# Fraction of the antenna spacing by which the open movement ball is shrunk
# to a closed one, so that projections onto it are well-defined.
POSITION_MARGIN_FRAC = 1e-6


@dataclass(frozen=True)
class SystemConfig:
    """System-level parameters. Field names match the JSON config keys."""

    carrier_frequency_hz: float
    num_subcarriers: int
    subcarrier_spacing_hz: float
    num_ues: int
    num_bs_antennas: int
    num_paths_per_ue: int
    max_delay_s: float
    total_power_w: float
    noise_power_w: float
    shod_max_degree: int
    seed: int
    schemes: tuple[str, ...] = SCHEME_ORDER
    antenna_spacing_wavelengths: float = 0.5

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency_hz

    @property
    def antenna_spacing(self) -> float:
        """Nominal inter-antenna spacing d in meters."""
        return self.antenna_spacing_wavelengths * self.wavelength

    @property
    def movement_radius(self) -> float:
        """Radius of the closed per-antenna movement ball, d/2 minus a margin."""
        d = self.antenna_spacing
        return d / 2.0 - POSITION_MARGIN_FRAC * d

    def validate(self) -> None:
        for key in _INT_KEYS:
            value = getattr(self, key)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValidationError(f"{key} must be an integer")
        if not 0 < self.carrier_frequency_hz < np.inf:
            raise ValidationError("carrier_frequency_hz must be finite and > 0")
        if self.num_subcarriers < 1:
            raise ValidationError("num_subcarriers must be >= 1")
        if not 0 < self.subcarrier_spacing_hz < np.inf:
            raise ValidationError("subcarrier_spacing_hz must be finite and > 0")
        if self.num_ues < 1:
            raise ValidationError("num_ues must be >= 1")
        if self.num_bs_antennas < self.num_ues:
            raise ValidationError(
                "num_bs_antennas >= num_ues required (zero-forcing feasibility)"
            )
        if self.num_paths_per_ue < 1:
            raise ValidationError("num_paths_per_ue must be >= 1")
        if not 0 < self.antenna_spacing_wavelengths < np.inf:
            raise ValidationError("antenna_spacing_wavelengths must be finite and > 0")
        if not 0 <= self.max_delay_s < np.inf:
            raise ValidationError("max_delay_s must be finite and >= 0")
        if not 0 < self.total_power_w < np.inf:
            raise ValidationError("total_power_w must be finite and > 0")
        if not 0 < self.noise_power_w < np.inf:
            raise ValidationError("noise_power_w must be finite and > 0")
        if self.shod_max_degree < 0:
            raise ValidationError("shod_max_degree must be >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        unknown = set(self.schemes) - set(SCHEME_ORDER)
        if unknown:
            raise ValidationError(f"schemes contains unknown entries {sorted(unknown)}")
        if not self.schemes:
            raise ValidationError("schemes must be nonempty")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValidationError("schemes must not repeat")


@dataclass(frozen=True)
class PathSet:
    """Multipath parameters for one UE: complex gains, unit wave vectors, delays."""

    gains: np.ndarray          # (L,) complex
    tx_wave_vectors: np.ndarray  # (L, 3) unit rows
    rx_wave_vectors: np.ndarray  # (L, 3) unit rows
    delays: np.ndarray         # (L,) seconds

    def __post_init__(self):
        object.__setattr__(self, "gains", _frozen(self.gains, np.complex128))
        object.__setattr__(self, "tx_wave_vectors", _frozen(self.tx_wave_vectors, np.float64))
        object.__setattr__(self, "rx_wave_vectors", _frozen(self.rx_wave_vectors, np.float64))
        object.__setattr__(self, "delays", _frozen(self.delays, np.float64))
        L = self.gains.shape[0]
        if self.tx_wave_vectors.shape != (L, 3) or self.rx_wave_vectors.shape != (L, 3):
            raise ValidationError("wave vector arrays must have shape (L, 3)")
        if self.delays.shape != (L,):
            raise ValidationError("delays must have shape (L,)")
        for name, k in (("tx_wave_vectors", self.tx_wave_vectors),
                        ("rx_wave_vectors", self.rx_wave_vectors)):
            if np.max(np.abs(np.linalg.norm(k, axis=1) - 1.0)) > 1e-12:
                raise ValidationError(f"{name} rows must be unit-norm within 1e-12")
        if np.any(self.delays < 0):
            raise ValidationError("delays must be nonnegative")

    @property
    def num_paths(self) -> int:
        return self.gains.shape[0]


@dataclass(frozen=True)
class Scenario:
    """One deterministic problem instance; immutable and safe to share."""

    config: SystemConfig
    initial_positions: np.ndarray       # (M, 3) meters
    ue_positions: np.ndarray            # (U, 3) meters
    path_sets: tuple[PathSet, ...]      # one per UE
    subcarrier_frequencies: np.ndarray  # (G,) Hz

    def __post_init__(self):
        object.__setattr__(self, "initial_positions", _frozen(self.initial_positions, np.float64))
        object.__setattr__(self, "ue_positions", _frozen(self.ue_positions, np.float64))
        object.__setattr__(self, "subcarrier_frequencies",
                           _frozen(self.subcarrier_frequencies, np.float64))

    @property
    def wavelength(self) -> float:
        return self.config.wavelength


def _frozen(arr, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


_REQUIRED_KEYS = (
    "carrier_frequency_hz", "num_subcarriers", "subcarrier_spacing_hz",
    "num_ues", "num_bs_antennas", "num_paths_per_ue", "max_delay_s",
    "total_power_w", "noise_power_w", "shod_max_degree", "seed", "schemes",
)
_OPTIONAL_KEYS = ("antenna_spacing_wavelengths",)
_INT_KEYS = ("num_subcarriers", "num_ues", "num_bs_antennas",
             "num_paths_per_ue", "shod_max_degree", "seed")


def config_from_mapping(raw: dict) -> SystemConfig:
    """Build and validate a SystemConfig from a plain key/value mapping."""
    unknown = set(raw) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS)
    if unknown:
        raise ValidationError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ValidationError(f"missing config key(s): {', '.join(missing)}")
    kwargs = {}
    for key, value in raw.items():
        if key == "schemes":
            if not isinstance(value, (list, tuple)) or not all(isinstance(s, str) for s in value):
                raise ValidationError("schemes must be an array of strings")
            value = tuple(value)
        elif key not in _INT_KEYS:  # integers are checked by validate
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValidationError(f"{key} must be a number")
            value = float(value)
        kwargs[key] = value
    config = SystemConfig(**kwargs)
    config.validate()
    return config


def load_config(path) -> SystemConfig:
    """Load a JSON config file; see README for the key schema."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level value must be a JSON object")
    return config_from_mapping(raw)


def subcarrier_frequencies(config: SystemConfig) -> np.ndarray:
    """Uniform grid of G subcarrier frequencies centered on the carrier."""
    g = np.arange(1, config.num_subcarriers + 1, dtype=np.float64)
    offset = (g - (config.num_subcarriers + 1) / 2.0) * config.subcarrier_spacing_hz
    return config.carrier_frequency_hz + offset


def initial_array_positions(config: SystemConfig) -> np.ndarray:
    """Uniform linear array along the x-axis, spacing d, centered at the origin."""
    m = np.arange(config.num_bs_antennas, dtype=np.float64)
    x = (m - (config.num_bs_antennas - 1) / 2.0) * config.antenna_spacing
    pos = np.zeros((config.num_bs_antennas, 3))
    pos[:, 0] = x
    return pos


def generate_scenario(config: SystemConfig,
                      annulus_m: tuple[float, float] = (100.0, 300.0)) -> Scenario:
    """Draw one seeded random instance.

    Path gains are i.i.d. circularly-symmetric complex Gaussian with per-path
    variance 1/L, wave vectors uniform on the unit sphere, delays uniform on
    [0, max_delay_s]. UEs are placed uniformly on a far-field annulus in the
    array plane (placement only enters the channel through fixed receive
    phases).
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    L = config.num_paths_per_ue
    path_sets = []
    ue_positions = np.zeros((config.num_ues, 3))
    r_lo, r_hi = annulus_m
    for u in range(config.num_ues):
        radius = rng.uniform(r_lo, r_hi)
        azimuth = rng.uniform(0.0, 2.0 * np.pi)
        ue_positions[u] = (radius * np.cos(azimuth), radius * np.sin(azimuth), 0.0)
        gains = (rng.standard_normal(L) + 1j * rng.standard_normal(L)) * np.sqrt(0.5 / L)
        path_sets.append(PathSet(
            gains=gains,
            tx_wave_vectors=_unit_rows(rng.standard_normal((L, 3))),
            rx_wave_vectors=_unit_rows(rng.standard_normal((L, 3))),
            delays=rng.uniform(0.0, config.max_delay_s, L),
        ))
    return Scenario(
        config=config,
        initial_positions=initial_array_positions(config),
        ue_positions=ue_positions,
        path_sets=tuple(path_sets),
        subcarrier_frequencies=subcarrier_frequencies(config),
    )


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=1, keepdims=True)
