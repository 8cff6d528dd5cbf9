import numpy as np
import pytest

from mara_sim.checks import mrt_precoder
from mara_sim.errors import ContractError, SingularChannelError
from mara_sim.scenario import generate_scenario
from mara_sim.channel import channel_tensor, initial_state
from mara_sim.se import sum_se_arrays
from mara_sim.optim import digital_precoder, water_fill

from conftest import make_config


def random_tensor(rng, U, M, G):
    return rng.standard_normal((U, M, G)) + 1j * rng.standard_normal((U, M, G))


def test_water_fill_equal_channels():
    p = water_fill(np.array([2.0, 2.0, 2.0]), 3.0)
    assert np.allclose(p, 1.0, atol=1e-9)


def test_water_fill_hand_computed_two_channels():
    # floors 1/slope = (0.5, 1.0); mu solves (mu-0.5)+(mu-1.0)=3 -> mu=2.25
    p = water_fill(np.array([2.0, 1.0]), 3.0)
    assert np.allclose(p, [1.75, 1.25], atol=1e-9)


def test_water_fill_drops_weak_channel():
    # floors (1.0, 2.0); with P=1 the level sits exactly at the weak floor.
    p = water_fill(np.array([1.0, 0.5]), 1.0)
    assert np.allclose(p, [1.0, 0.0], atol=1e-9)


def test_water_fill_budget_met_exactly(rng):
    slopes = rng.uniform(0.1, 5.0, 20)
    p = water_fill(slopes, 7.3)
    assert np.all(p >= 0)
    assert p.sum() == pytest.approx(7.3, rel=1e-12)


def test_water_fill_budget_far_below_the_floors():
    # Floors 1/slope are (0.5, 0.5 - 5e-12, 1, 2); a 1e-12 budget fills only
    # the lowest one, to 0.5 - 4e-12, below every other floor.
    slopes = np.array([2.0, 2.0 * (1 + 1e-11), 1.0, 0.5])
    p = water_fill(slopes, 1e-12)
    level = 1.0 / slopes[1] + 1e-12
    assert np.all(p[1.0 / slopes > level] == 0.0)
    assert p[1] == pytest.approx(1e-12, rel=1e-12)
    assert p.sum() == pytest.approx(1e-12, rel=1e-15)


def test_water_fill_zero_budget_gives_zero_powers():
    assert np.array_equal(water_fill(np.array([2.0, 1.0]), 0.0), [0.0, 0.0])
    with pytest.raises(ContractError):
        water_fill(np.array([2.0, 1.0]), -1.0)


def test_water_fill_rejects_nonpositive_slope():
    with pytest.raises(ContractError):
        water_fill(np.array([1.0, 0.0]), 1.0)


def test_zf_identity_channel_diagonal_equal_powers():
    h = np.zeros((2, 2, 1), dtype=complex)
    h[:, :, 0] = np.eye(2)
    prec = digital_precoder(h, 4.0, 0.5)
    w = prec.w[0]
    off = w - np.diag(np.diag(w))
    assert np.max(np.abs(off)) < 1e-12
    powers = np.abs(np.diag(w)) ** 2
    assert np.allclose(powers, 2.0, atol=1e-9)


def reference_zf(h, total_power, noise_power):
    """Per-subcarrier ZF through inv(H H^H), the loop the stacked SVD replaced."""
    U, M, G = h.shape
    directions = np.zeros((G, M, U), dtype=complex)
    slopes = np.zeros((G, U))
    for g in range(G):
        H = h[:, :, g]
        pinv = H.conj().T @ np.linalg.inv(H @ H.conj().T)
        norms = np.linalg.norm(pinv, axis=0)
        directions[g] = pinv / norms
        slopes[g] = 1.0 / (norms ** 2 * noise_power)
    powers = water_fill(slopes.ravel(), total_power).reshape(G, U)
    return directions * np.sqrt(powers)[:, None, :]


@pytest.mark.parametrize("U, M, G", [(1, 1, 1), (2, 2, 3), (3, 5, 4), (4, 8, 16)])
def test_stacked_zf_matches_per_subcarrier_inverse(rng, U, M, G):
    h = random_tensor(rng, U, M, G)
    w = digital_precoder(h, 1.3, 0.02).w
    ref = reference_zf(h, 1.3, 0.02)
    assert np.max(np.abs(w - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_zf_nulls_cross_user_terms(rng):
    h = random_tensor(rng, U=3, M=5, G=4)
    prec = digital_precoder(h, 2.0, 0.01)
    for g in range(4):
        H = h[:, :, g]
        for u in range(3):
            for up in range(3):
                if u == up:
                    continue
                leak = abs(H[u] @ prec.w[g][:, up])
                bound = 1e-10 * np.linalg.norm(H[u]) * max(
                    np.linalg.norm(prec.w[g][:, up]), 1e-300)
                assert leak <= max(bound, 1e-14)


def test_total_power_spent_exactly(rng):
    h = random_tensor(rng, U=2, M=4, G=3)
    for prec in (digital_precoder(h, 1.7, 0.02), mrt_precoder(h, 1.7)):
        assert prec.total_power == pytest.approx(1.7, rel=1e-9)


def test_single_user_zf_equals_mrt_single_subcarrier(rng):
    h = random_tensor(rng, U=1, M=4, G=1)
    noise = 0.05
    se_zf = sum_se_arrays(h, digital_precoder(h, 1.0, noise).w, noise)
    se_mrt = sum_se_arrays(h, mrt_precoder(h, 1.0).w, noise)
    assert se_zf == pytest.approx(se_mrt, rel=1e-9)


def test_single_user_zf_equals_mrt_flat_channel(rng):
    # Zero delay spread: all subcarriers identical, so water-filling matches
    # the equal split and both reduce to matched filtering.
    cfg = make_config(num_ues=1, num_bs_antennas=3, num_subcarriers=4,
                      max_delay_s=0.0, seed=31)
    scen = generate_scenario(cfg)
    h = channel_tensor(scen, initial_state(scen, "TFA"), "TFA")
    noise = cfg.noise_power_w
    se_zf = sum_se_arrays(h, digital_precoder(h, 1.0, noise).w, noise)
    se_mrt = sum_se_arrays(h, mrt_precoder(h, 1.0).w, noise)
    assert se_zf == pytest.approx(se_mrt, rel=1e-9)


def test_mrt_columns_proportional_to_conjugate_channel(rng):
    h = random_tensor(rng, U=2, M=3, G=2)
    prec = mrt_precoder(h, 1.0)
    for g in range(2):
        for u in range(2):
            col = prec.w[g][:, u]
            ref = np.conj(h[u, :, g])
            cross = np.abs(col @ np.conj(ref)) / (
                np.linalg.norm(col) * np.linalg.norm(ref))
            assert cross == pytest.approx(1.0, abs=1e-12)


def test_zf_rank_deficient_names_subcarrier(rng):
    h = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
    h[1, :, 1] = h[0, :, 1]  # duplicate user rows on subcarrier 1
    with pytest.raises(SingularChannelError, match="subcarrier 1"):
        digital_precoder(h, 1.0, 0.1)


def test_waterfilling_beats_equal_split(rng):
    # Frequency-selective single-user instance: the ZF water-filler should
    # never do worse than the same directions with an equal power split.
    cfg = make_config(num_ues=1, num_bs_antennas=2, num_subcarriers=8,
                      max_delay_s=1e-6, seed=32)
    scen = generate_scenario(cfg)
    h = channel_tensor(scen, initial_state(scen, "TFA"), "TFA")
    noise = cfg.noise_power_w
    prec = digital_precoder(h, 1.0, noise)
    se_wf = sum_se_arrays(h, prec.w, noise)
    directions = prec.w / np.maximum(np.linalg.norm(prec.w, axis=1, keepdims=True), 1e-300)
    equal = directions * np.sqrt(1.0 / prec.w.shape[0])
    se_eq = sum_se_arrays(h, equal, noise)
    assert se_wf >= se_eq - 1e-12
