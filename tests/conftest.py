import json

import numpy as np
import pytest

from mara_sim import checks
from mara_sim.scenario import SCHEME_ORDER, SystemConfig
from mara_sim.channel import (MOVABLE_SCHEMES, RECONFIGURABLE_SCHEMES, AntennaState,
                              initial_state)


def make_config(**overrides) -> SystemConfig:
    """Small valid config; override any field by keyword."""
    params = dict(
        carrier_frequency_hz=3.5e9,
        num_subcarriers=4,
        subcarrier_spacing_hz=120e3,
        num_ues=2,
        num_bs_antennas=3,
        num_paths_per_ue=4,
        max_delay_s=5e-7,
        total_power_w=1.0,
        noise_power_w=1e-2,
        shod_max_degree=2,
        seed=0,
        schemes=SCHEME_ORDER,
    )
    params.update(overrides)
    return SystemConfig(**params)


def config_file_dict(**overrides) -> dict:
    """Raw JSON-ready mapping with the required keys."""
    raw = dict(
        carrier_frequency_hz=3.5e9,
        num_subcarriers=8,
        subcarrier_spacing_hz=120e3,
        num_ues=2,
        num_bs_antennas=4,
        num_paths_per_ue=4,
        max_delay_s=5e-7,
        total_power_w=1.0,
        noise_power_w=1e-2,
        shod_max_degree=2,
        seed=1,
        schemes=list(SCHEME_ORDER),
    )
    raw.update(overrides)
    return raw


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(config_file_dict(**overrides)))
    return path


def channel(ws, positions, coefficients):
    """The workspace's channel tensor at positions and coefficients, both path
    factors built fresh; either argument may carry leading candidate axes."""
    return ws.tensor(ws.phases(positions), ws.patterns(coefficients))


def random_feasible_state(scenario, rng, scheme="MARA") -> AntennaState:
    """Random positions inside the movement balls, random unit pattern rows,
    then the scheme's pinned parts taken from its `initial_state`."""
    drawn = checks.random_feasible_state(scenario, rng)
    nominal = initial_state(scenario, scheme)
    positions, coeffs = drawn.positions, drawn.coefficients
    if scheme not in MOVABLE_SCHEMES:
        positions = nominal.positions
    if scheme not in RECONFIGURABLE_SCHEMES:
        coeffs = nominal.coefficients
    return AntennaState(positions, coeffs, scheme)


@pytest.fixture(autouse=True)
def one_worker(monkeypatch):
    """Solve cells in the test process whatever the caller exports, so a
    wrapper patched in by a test sees every call."""
    monkeypatch.delenv("MARA_SIM_THREADS", raising=False)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
