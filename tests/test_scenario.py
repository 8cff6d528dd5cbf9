import dataclasses
import json
import math

import numpy as np
import pytest

from mara_sim import cli
from mara_sim.errors import ConfigError, ValidationError
from mara_sim.scenario import (_INT_KEYS, _OPTIONAL_KEYS, _REQUIRED_KEYS, SCHEME_ORDER,
                               UE_ANNULUS_M, PathSet, SystemConfig, config_from_mapping,
                               generate_scenario, load_config, subcarrier_frequencies)

from conftest import config_file_dict, make_config, write_config


def test_load_config_applies_spacing_default(tmp_path):
    raw = config_file_dict(num_bs_antennas=4, num_ues=2, num_subcarriers=8)
    raw.pop("schemes")
    raw["schemes"] = ["TFA", "SMA"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(path)
    assert cfg.antenna_spacing_wavelengths == 0.5
    assert cfg.antenna_spacing == pytest.approx(0.5 * cfg.wavelength, rel=1e-15)


def test_load_config_rejects_fewer_antennas_than_ues(tmp_path):
    path = write_config(tmp_path, num_bs_antennas=1, num_ues=2)
    with pytest.raises(ValidationError, match="num_bs_antennas"):
        load_config(path)


def test_load_config_is_deterministic(tmp_path):
    path = write_config(tmp_path)
    assert load_config(path) == load_config(path)


def test_load_config_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "carrier_frequency_hz": 3.5e9,\n  oops\n}')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(path)


def test_load_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, bandwidth_hz=1e6)
    with pytest.raises(ValidationError, match="bandwidth_hz"):
        load_config(path)


def test_load_config_rejects_missing_key(tmp_path):
    raw = config_file_dict()
    raw.pop("noise_power_w")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValidationError, match="noise_power_w"):
        load_config(path)


def test_generate_scenario_bit_identical():
    cfg = make_config(seed=1)
    a = generate_scenario(cfg)
    b = generate_scenario(cfg)
    assert np.array_equal(a.initial_positions, b.initial_positions)
    assert np.array_equal(a.ue_positions, b.ue_positions)
    assert np.array_equal(a.subcarrier_frequencies, b.subcarrier_frequencies)
    for f in dataclasses.fields(PathSet):
        assert np.array_equal(getattr(a.paths, f.name), getattr(b.paths, f.name))


def test_generate_scenario_draws_each_ue_in_turn():
    # One UE's placement, gains, wave vectors and delays, then the next UE's: the
    # order in which the table's rows are drawn is part of every seeded result.
    cfg = make_config(num_ues=3, num_paths_per_ue=5, seed=4)
    scen = generate_scenario(cfg)
    rng, L = np.random.default_rng(cfg.seed), cfg.num_paths_per_ue
    for u in range(cfg.num_ues):
        radius, azimuth = rng.uniform(*UE_ANNULUS_M), rng.uniform(0.0, 2.0 * np.pi)
        assert np.array_equal(scen.ue_positions[u], [radius * np.cos(azimuth),
                                                     radius * np.sin(azimuth), 0.0])
        gains = (rng.standard_normal(L) + 1j * rng.standard_normal(L)) * np.sqrt(0.5 / L)
        assert np.array_equal(scen.paths.gains[u], gains)
        for name in ("tx_wave_vectors", "rx_wave_vectors"):
            k = rng.standard_normal((L, 3))
            assert np.array_equal(getattr(scen.paths, name)[u],
                                  k / np.linalg.norm(k, axis=1, keepdims=True))
        assert np.array_equal(scen.paths.delays[u], rng.uniform(0.0, cfg.max_delay_s, L))


def test_single_path_per_ue():
    scen = generate_scenario(make_config(num_ues=3, num_paths_per_ue=1))
    assert scen.paths.gains.shape == scen.paths.delays.shape == (3, 1)
    assert scen.paths.tx_wave_vectors.shape == scen.paths.rx_wave_vectors.shape == (3, 1, 3)


def test_gain_variance_matches_one_over_l():
    # Monte-Carlo estimate of the per-path gain variance over 1e5 draws.
    L = 100_000
    cfg = make_config(num_ues=1, num_bs_antennas=1, num_paths_per_ue=L, seed=9)
    scen = generate_scenario(cfg)
    mean_power = float(np.mean(np.abs(scen.paths.gains[0]) ** 2))
    assert abs(mean_power - 1.0 / L) <= 0.02 / L


def test_wave_vectors_unit_and_delays_bounded():
    cfg = make_config(seed=3, max_delay_s=2e-7)
    scen = generate_scenario(cfg)
    ps = scen.paths
    assert np.max(np.abs(np.linalg.norm(ps.tx_wave_vectors, axis=-1) - 1)) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(ps.rx_wave_vectors, axis=-1) - 1)) <= 1e-12
    assert np.all(ps.delays >= 0) and np.all(ps.delays <= cfg.max_delay_s)


def test_subcarrier_grid_single():
    cfg = make_config(num_subcarriers=1)
    assert subcarrier_frequencies(cfg).tolist() == [cfg.carrier_frequency_hz]


def test_subcarrier_grid_pair():
    cfg = make_config(num_subcarriers=2)
    s = cfg.subcarrier_spacing_hz
    f = subcarrier_frequencies(cfg)
    assert f.tolist() == [cfg.carrier_frequency_hz - s / 2, cfg.carrier_frequency_hz + s / 2]


def test_subcarrier_grid_mean_is_carrier():
    cfg = make_config(num_subcarriers=8)
    f = subcarrier_frequencies(cfg)
    mean = math.fsum(f) / len(f)  # independent direct sum
    assert abs(mean - cfg.carrier_frequency_hz) <= 1e-6 * cfg.carrier_frequency_hz


def test_subcarrier_grid_symmetric_about_carrier():
    for G in (1, 2, 5, 8, 16):
        cfg = make_config(num_subcarriers=G)
        f = subcarrier_frequencies(cfg)
        assert abs(math.fsum(f - cfg.carrier_frequency_hz)) <= 1e-6 * cfg.carrier_frequency_hz


def test_initial_positions_form_ula():
    cfg = make_config(num_bs_antennas=5)
    scen = generate_scenario(cfg)
    p = scen.initial_positions
    assert np.allclose(p[:, 1:], 0.0)
    gaps = np.diff(p[:, 0])
    assert np.allclose(gaps, cfg.antenna_spacing, rtol=1e-15)


def test_scenario_arrays_immutable():
    scen = generate_scenario(make_config())
    with pytest.raises(ValueError):
        scen.initial_positions[0, 0] = 1.0
    with pytest.raises(ValueError):
        scen.paths.gains[0, 0] = 0.0


def test_config_validation_errors_name_fields():
    bad = {
        "num_subcarriers": 0, "num_ues": 0, "num_paths_per_ue": 0,
        "total_power_w": 0.0, "noise_power_w": 0.0, "shod_max_degree": -1,
        "antenna_spacing_wavelengths": 0.0, "seed": -1, "schemes": ("TFA", "TFA"),
    }
    valid = make_config()
    for key, value in bad.items():
        with pytest.raises(ValidationError, match=key):
            make_config(**{key: value})
        with pytest.raises(ValidationError, match=key):
            dataclasses.replace(valid, **{key: value})


def test_config_with_several_bad_fields_names_the_first_in_field_order():
    with pytest.raises(ValidationError, match="carrier_frequency_hz"):
        make_config(seed=2.5, num_ues=0, carrier_frequency_hz=-1.0)
    with pytest.raises(ValidationError, match="num_subcarriers must be an integer"):
        make_config(seed=-1, total_power_w="1", num_subcarriers=2.5)


@pytest.mark.parametrize("value", ["1", None, True])
@pytest.mark.parametrize("key", ["carrier_frequency_hz", "total_power_w",
                                 "antenna_spacing_wavelengths"])
def test_config_rejects_a_float_field_that_is_not_a_number(key, value):
    with pytest.raises(ValidationError, match=f"^{key} must be a number$"):
        make_config(**{key: value})


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("key", ["max_delay_s", "total_power_w"])
def test_config_rejects_an_integer_too_large_for_a_double(key, sign):
    with pytest.raises(ValidationError, match=f"^{key} must be finite and >"):
        make_config(**{key: sign * 10 ** 400})


def test_config_rejects_counts_past_the_bytes_numpy_can_index():
    # With one UE, antenna, path and harmonic, env and the channel take 16 bytes
    # per subcarrier; the largest count that np.intp can index is accepted, and
    # an oversized array names its longest axis.
    limit = np.iinfo(np.intp).max // 16
    tiny = dict(num_ues=1, num_bs_antennas=1, num_paths_per_ue=1, shod_max_degree=0)
    assert make_config(num_subcarriers=limit, **tiny).num_subcarriers == limit
    with pytest.raises(ValidationError, match="^num_subcarriers is too large"):
        make_config(num_subcarriers=limit + 1, **tiny)
    with pytest.raises(ValidationError, match="^num_bs_antennas is too large"):
        make_config(**dict(tiny, num_subcarriers=2, num_bs_antennas=limit))


def test_config_accepts_numpy_scalars_and_normalises_floats_and_schemes():
    cfg = make_config(num_ues=np.int64(2), total_power_w=np.float32(0.5),
                      noise_power_w=1, schemes=["TFA", "MARA"])
    assert type(cfg.total_power_w) is float and cfg.total_power_w == 0.5
    assert type(cfg.noise_power_w) is float and cfg.noise_power_w == 1.0
    assert cfg.schemes == ("TFA", "MARA")
    assert cfg == make_config(total_power_w=0.5, noise_power_w=1.0,
                              schemes=("TFA", "MARA"))
    hash(cfg)


def test_config_stores_numpy_integers_as_int():
    # A numpy integer seed would overflow in `seed + trial` (cli check and oracle).
    cfg = make_config(num_ues=np.int64(2), seed=np.uint8(7))
    assert type(cfg.num_ues) is int and cfg.num_ues == 2
    assert type(cfg.seed) is int and cfg.seed == 7
    cfg = dataclasses.replace(cfg, seed=np.uint8(255), num_bs_antennas=np.int32(3))
    assert type(cfg.seed) is int and cfg.seed + 1 == 256
    assert type(cfg.num_bs_antennas) is int
    assert cfg == make_config(seed=255)


def test_key_tables_follow_the_fields():
    assert _REQUIRED_KEYS == (
        "carrier_frequency_hz", "num_subcarriers", "subcarrier_spacing_hz",
        "num_ues", "num_bs_antennas", "num_paths_per_ue", "max_delay_s",
        "total_power_w", "noise_power_w", "shod_max_degree", "seed", "schemes")
    assert _OPTIONAL_KEYS == ("antenna_spacing_wavelengths",)
    assert _INT_KEYS == ("num_subcarriers", "num_ues", "num_bs_antennas",
                         "num_paths_per_ue", "shod_max_degree", "seed")


def test_cli_default_configs_keep_their_values():
    assert cli._check_default_config() == SystemConfig(
        carrier_frequency_hz=3.5e9, num_subcarriers=2, subcarrier_spacing_hz=120e3,
        num_ues=2, num_bs_antennas=2, num_paths_per_ue=3, max_delay_s=1e-7,
        total_power_w=1.0, noise_power_w=1e-2, shod_max_degree=2, seed=7,
        schemes=SCHEME_ORDER, antenna_spacing_wavelengths=0.5)
    assert cli._oracle_default_config() == SystemConfig(
        carrier_frequency_hz=3.5e9, num_subcarriers=1, subcarrier_spacing_hz=120e3,
        num_ues=1, num_bs_antennas=1, num_paths_per_ue=2, max_delay_s=0.0,
        total_power_w=1.0, noise_power_w=1e-2, shod_max_degree=2, seed=11,
        schemes=SCHEME_ORDER, antenna_spacing_wavelengths=0.5)


@pytest.mark.parametrize("name, cut", [
    ("initial_positions", lambda s: s.initial_positions[:-1]),
    ("ue_positions", lambda s: s.ue_positions[:, :2]),
    ("paths", lambda s: PathSet(*(getattr(s.paths, f.name)[:-1]
                                  for f in dataclasses.fields(PathSet)))),
    ("subcarrier_frequencies", lambda s: s.subcarrier_frequencies[:-1]),
], ids=["M", "U", "paths", "G"])
def test_scenario_rejects_arrays_that_disagree_with_its_config(name, cut):
    scen = generate_scenario(make_config(num_ues=3, num_subcarriers=8))
    with pytest.raises(ValidationError, match=name):
        dataclasses.replace(scen, **{name: cut(scen)})


def stacked_paths(U=3, L=4):
    """A valid (U, L) table as a dict of its fields: unit wave vectors along z and x."""
    return dict(gains=np.ones((U, L), dtype=complex),
                tx_wave_vectors=np.broadcast_to([0.0, 0.0, 1.0], (U, L, 3)),
                rx_wave_vectors=np.broadcast_to([1.0, 0.0, 0.0], (U, L, 3)),
                delays=np.zeros((U, L)))


def test_path_set_holds_the_stacked_table_read_only():
    paths = PathSet(**stacked_paths())
    assert paths.gains.shape == paths.delays.shape == (3, 4)
    assert paths.tx_wave_vectors.shape == paths.rx_wave_vectors.shape == (3, 4, 3)
    for f in dataclasses.fields(PathSet):
        with pytest.raises(ValueError):
            getattr(paths, f.name)[-1, -1] = 0.0


def off_unit(k):
    k = np.array(k)
    k[-1, -1] *= 1.0 + 1e-11
    return k


def nan_row(k):
    k = np.array(k)
    k[1, 2] = np.nan
    return k


def negative_last(d):
    d = np.array(d)
    d[-1, -1] = -1e-12
    return d


@pytest.mark.parametrize("name, cut, message", [
    ("gains", lambda a: a[0], r"gains must have shape \(U, L\)"),
    ("gains", lambda a: a[..., None], r"gains must have shape \(U, L\)"),
    ("tx_wave_vectors", lambda a: a[:, :-1], r"tx_wave_vectors must have shape \(U, L, 3\)"),
    ("rx_wave_vectors", lambda a: a[:-1], r"rx_wave_vectors must have shape \(U, L, 3\)"),
    ("rx_wave_vectors", lambda a: a[..., :2], r"rx_wave_vectors must have shape \(U, L, 3\)"),
    ("delays", lambda a: a[0], r"delays must have shape \(U, L\)"),
    ("delays", lambda a: a[:, :-1], r"delays must have shape \(U, L\)"),
    ("tx_wave_vectors", off_unit, "tx_wave_vectors rows must be unit-norm within 1e-12"),
    ("rx_wave_vectors", off_unit, "rx_wave_vectors rows must be unit-norm within 1e-12"),
    ("tx_wave_vectors", nan_row, "tx_wave_vectors rows must be unit-norm within 1e-12"),
    ("delays", negative_last, "delays must be nonnegative"),
], ids=["gains-1d", "gains-3d", "tx-L", "rx-U", "rx-2d-rows", "delays-1d", "delays-L",
        "tx-off-unit", "rx-off-unit", "tx-nan", "delays-negative"])
def test_path_set_checks_the_whole_table(name, cut, message):
    # Each check runs once, over every UE's row: the fault sits in the last UE
    # or off the table's (U, L) shape.
    fields = stacked_paths()
    fields[name] = cut(fields[name])
    with pytest.raises(ValidationError, match=message):
        PathSet(**fields)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("key", ["carrier_frequency_hz", "subcarrier_spacing_hz",
                                 "max_delay_s", "total_power_w", "noise_power_w",
                                 "antenna_spacing_wavelengths"])
def test_config_validation_rejects_non_finite_floats(key, value):
    with pytest.raises(ValidationError, match=key):
        make_config(**{key: value})


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("key", _INT_KEYS)
def test_config_validation_rejects_non_integer_counts(key, value):
    message = f"{key} must be an integer"
    with pytest.raises(ValidationError, match=message):
        make_config(**{key: value})
    with pytest.raises(ValidationError, match=message):
        config_from_mapping(config_file_dict(**{key: value}))
