"""Problem-instance construction: config ingestion, seeded random scenarios, subcarrier grid.

A Scenario is a fully deterministic function of (SystemConfig, seed): the
multipath geometry, complex path gains, delays and UE placement are all drawn
from one seeded generator, so identical configs reproduce bit-identical
instances.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ValidationError

SPEED_OF_LIGHT = 299_792_458.0

# Canonical scheme order, warm starts first; the harness calls requested schemes in it.
SCHEME_ORDER = ("TFA", "SMA", "ERA", "MARA")

# Fraction of the antenna spacing by which the open movement ball is shrunk
# to a closed one, so that projections onto it are well-defined.
POSITION_MARGIN_FRAC = 1e-6

# Inner and outer radius in meters of the annulus that UEs are placed on.
UE_ANNULUS_M = (100.0, 300.0)


@dataclass(frozen=True)
class SystemConfig:
    """System-level parameters. Field names match the JSON config keys.

    A config is valid once built, by `dataclasses.replace` too: `__post_init__`
    checks the fields in field order, raises ValidationError naming the first
    bad one, and stores the integer fields as `int`, the float fields as `float`
    (numpy scalars pass) and `schemes` as a tuple. Then it checks that the
    arrays the counts imply fit in memory numpy can index (`_check_array_bytes`).
    """

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

    def __post_init__(self):
        for f in fields(self):  # f.type is the annotation's text (future import)
            key, value = f.name, getattr(self, f.name)
            if f.type == "int":
                if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                    raise ValidationError(f"{key} must be an integer")
                value = int(value)  # a numpy integer would wrap in seed + 1
                if key == "num_bs_antennas":
                    if value < self.num_ues:
                        raise ValidationError(
                            "num_bs_antennas >= num_ues required (zero-forcing feasibility)")
                elif value < _INT_MINIMUM[key]:
                    raise ValidationError(f"{key} must be >= {_INT_MINIMUM[key]}")
            elif f.type == "float":
                if not isinstance(value, numbers.Real) or isinstance(value, bool):
                    raise ValidationError(f"{key} must be a number")
                try:
                    value = float(value)
                except OverflowError:  # an int too large for a double
                    value = np.inf
                if key == "max_delay_s":
                    if not 0 <= value < np.inf:
                        raise ValidationError(f"{key} must be finite and >= 0")
                elif not 0 < value < np.inf:
                    raise ValidationError(f"{key} must be finite and > 0")
            else:  # schemes
                value = tuple(value)
                unknown = set(value) - set(SCHEME_ORDER)
                if unknown:
                    raise ValidationError(f"schemes contains unknown entries {sorted(unknown)}")
                if not value:
                    raise ValidationError("schemes must be nonempty")
                if len(set(value)) != len(value):
                    raise ValidationError("schemes must not repeat")
            object.__setattr__(self, key, value)
        _check_array_bytes(self)


def _check_array_bytes(cfg: SystemConfig) -> None:
    """Name the key of the longest axis of an array the counts imply, env (U, L, G) or
    h (U, M, G) complex, omega (U, L, K) or basis (nodes, K) real, past np.intp bytes."""
    N = cfg.shod_max_degree
    U, M, L, G = ((key, getattr(cfg, key)) for key in
                  ("num_ues", "num_bs_antennas", "num_paths_per_ue", "num_subcarriers"))
    K, nodes = ("shod_max_degree", (N + 1) ** 2), ("shod_max_degree", 4 * (N + 1) * (2 * N + 1))
    for itemsize, shape in ((16, (U, L, G)), (16, (U, M, G)), (8, (U, L, K)), (8, (nodes, K))):
        if itemsize * math.prod(n for _, n in shape) > sys.maxsize:  # np.intp's maximum
            raise ValidationError(f"{max(shape, key=lambda a: a[1])[0]} is too large: an "
                                  "array it implies would need more bytes than numpy can index")


# Least value of each count but num_bs_antennas, which num_ues bounds.
_INT_MINIMUM = {"num_subcarriers": 1, "num_ues": 1, "num_paths_per_ue": 1,
                "shod_max_degree": 0, "seed": 0}
# The JSON keys are the field names; these may be left out.
_OPTIONAL_KEYS = ("antenna_spacing_wavelengths",)
_REQUIRED_KEYS = tuple(f.name for f in fields(SystemConfig) if f.name not in _OPTIONAL_KEYS)
_INT_KEYS = tuple(f.name for f in fields(SystemConfig) if f.type == "int")


@dataclass(frozen=True)
class PathSet:
    """Multipath parameters of every UE, one row per UE and one column per path:
    complex gains, unit wave vectors, delays. A UE with fewer physical paths than L
    carries zero-gain paths, which add exactly 0 to its channel."""

    gains: np.ndarray            # (U, L) complex
    tx_wave_vectors: np.ndarray  # (U, L, 3) unit rows
    rx_wave_vectors: np.ndarray  # (U, L, 3) unit rows
    delays: np.ndarray           # (U, L) seconds

    def __post_init__(self):
        for name, dtype, tail in (("gains", np.complex128, ()), ("delays", np.float64, ()),
                                  ("tx_wave_vectors", np.float64, (3,)),
                                  ("rx_wave_vectors", np.float64, (3,))):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
            if self.gains.ndim != 2 or getattr(self, name).shape != self.gains.shape + tail:
                raise ValidationError(f"{name} must have shape (U, L{', 3' * len(tail)})")
        for name in ("tx_wave_vectors", "rx_wave_vectors"):
            if not np.all(np.abs(np.linalg.norm(getattr(self, name), axis=-1) - 1.0) <= 1e-12):
                raise ValidationError(f"{name} rows must be unit-norm within 1e-12")
        if not np.all(self.delays >= 0):
            raise ValidationError("delays must be nonnegative")


@dataclass(frozen=True)
class Scenario:
    """One deterministic problem instance; immutable and safe to share."""

    config: SystemConfig
    initial_positions: np.ndarray       # (M, 3) meters
    ue_positions: np.ndarray            # (U, 3) meters
    paths: PathSet                      # (U, L) table, one row per UE
    subcarrier_frequencies: np.ndarray  # (G,) Hz

    def __post_init__(self):
        """Freeze the arrays and check their shapes against the config; the path
        count L is free, since a UE may carry zero-gain paths."""
        cfg = self.config
        for name, shape in (("initial_positions", (cfg.num_bs_antennas, 3)),
                            ("ue_positions", (cfg.num_ues, 3)),
                            ("subcarrier_frequencies", (cfg.num_subcarriers,))):
            object.__setattr__(self, name, _frozen(getattr(self, name), np.float64))
            if getattr(self, name).shape != shape:
                raise ValidationError(f"{name} must have shape {shape}")
        if self.paths.gains.shape[0] != cfg.num_ues:
            raise ValidationError(f"paths must hold one row per UE ({cfg.num_ues})")


def _frozen(arr, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def config_from_mapping(raw: dict) -> SystemConfig:
    """Build a SystemConfig from a plain key/value mapping, such as a parsed
    JSON file. Checked here is only what a mapping adds: no unknown or missing
    key, and `schemes` an array of strings; the config checks its fields."""
    unknown = set(raw) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS)
    if unknown:
        raise ValidationError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ValidationError(f"missing config key(s): {', '.join(missing)}")
    schemes = raw["schemes"]
    if not isinstance(schemes, (list, tuple)) or not all(isinstance(s, str) for s in schemes):
        raise ValidationError("schemes must be an array of strings")
    return SystemConfig(**raw)


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
    M = config.num_bs_antennas
    pos = np.zeros((M, 3))
    pos[:, 0] = (np.arange(M, dtype=np.float64) - (M - 1) / 2.0) * config.antenna_spacing
    return pos


def generate_scenario(config: SystemConfig) -> Scenario:
    """Draw one seeded random instance.

    Path gains are i.i.d. circularly-symmetric complex Gaussian with per-path
    variance 1/L, wave vectors uniform on the unit sphere, delays uniform on
    [0, max_delay_s]. UEs are placed uniformly on the far-field annulus
    `UE_ANNULUS_M` in the array plane (placement only enters the channel
    through fixed receive phases). The config checked itself when built.
    """
    rng = np.random.default_rng(config.seed)
    L, (r_lo, r_hi) = config.num_paths_per_ue, UE_ANNULUS_M
    rows = []
    for _ in range(config.num_ues):  # each UE's draws in turn: its placement, then its paths
        radius, azimuth = rng.uniform(r_lo, r_hi), rng.uniform(0.0, 2.0 * np.pi)
        rows.append(((radius * np.cos(azimuth), radius * np.sin(azimuth), 0.0),
                     (rng.standard_normal(L) + 1j * rng.standard_normal(L)) * np.sqrt(0.5 / L),
                     _unit_rows(rng.standard_normal((L, 3))),
                     _unit_rows(rng.standard_normal((L, 3))),
                     rng.uniform(0.0, config.max_delay_s, L)))
    ue_positions, *table = map(np.array, zip(*rows))
    return Scenario(
        config=config,
        initial_positions=initial_array_positions(config),
        ue_positions=ue_positions,
        paths=PathSet(*table),
        subcarrier_frequencies=subcarrier_frequencies(config),
    )


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=1, keepdims=True)
