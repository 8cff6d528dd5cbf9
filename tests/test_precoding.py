import warnings

import numpy as np
import pytest

from mara_sim.checks import mrt_precoder
from mara_sim.errors import ContractError, SingularChannelError
from mara_sim.scenario import generate_scenario
from mara_sim.channel import ChannelWorkspace, initial_state
from mara_sim.se import effective_channel, sum_se_arrays
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


@pytest.mark.parametrize("total_power", [-1.0, np.nan, np.inf])
def test_water_fill_rejects_negative_or_nonfinite_budget(total_power):
    with pytest.raises(ContractError):
        water_fill(np.array([2.0, 1.0]), total_power)


@pytest.mark.parametrize("slopes", [[1.0, 0.0], [1.0, np.nan], [1.0, np.inf], []],
                         ids=["0.0", "nan", "inf", "empty"])
def test_water_fill_rejects_nonpositive_slope(slopes):
    for total_power in (1.0, 0.0):
        with pytest.raises(ContractError):
            water_fill(np.array(slopes), total_power)


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
    se_zf = sum_se_arrays(effective_channel(h, digital_precoder(h, 1.0, noise).w), noise)
    se_mrt = sum_se_arrays(effective_channel(h, mrt_precoder(h, 1.0).w), noise)
    assert se_zf == pytest.approx(se_mrt, rel=1e-9)


def test_single_user_zf_equals_mrt_flat_channel(rng):
    # Zero delay spread: all subcarriers identical, so water-filling matches
    # the equal split and both reduce to matched filtering.
    cfg = make_config(num_ues=1, num_bs_antennas=3, num_subcarriers=4,
                      max_delay_s=0.0, seed=31)
    scen = generate_scenario(cfg)
    h = ChannelWorkspace(scen).state_tensor(initial_state(scen, "TFA"))
    noise = cfg.noise_power_w
    se_zf = sum_se_arrays(effective_channel(h, digital_precoder(h, 1.0, noise).w), noise)
    se_mrt = sum_se_arrays(effective_channel(h, mrt_precoder(h, 1.0).w), noise)
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


EPS = np.finfo(np.float64).eps


def pinv_zf(h, total_power, noise_power):
    """Oracle: ZF from np.linalg.pinv, one SVD per subcarrier, then water-filling."""
    U, M, G = h.shape
    pinv = np.stack([np.linalg.pinv(h[:, :, g]) for g in range(G)])  # (G, M, U)
    norms = np.linalg.norm(pinv, axis=1)
    powers = water_fill((1.0 / (norms ** 2 * noise_power)).ravel(), total_power)
    return pinv * (np.sqrt(powers.reshape(G, U)) / norms)[:, None, :]


def svd_flags(h):
    """The SVD rank test s_min <= 1e-12 s_max per subcarrier."""
    sv = np.linalg.svd(np.transpose(h, (2, 0, 1)), compute_uv=False)
    return (sv[:, 0] == 0.0) | (sv[:, -1] <= 1e-12 * sv[:, 0])


def haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def conditioned_matrix(rng, U, M, kappa):
    """A (U, M) matrix whose singular values run geometrically from 1 to 1/kappa."""
    s = np.geomspace(1.0, 1.0 / kappa, U)
    return haar_unitary(rng, U) @ (s[:, None] * haar_unitary(rng, M)[:U])


def conditioned_channel(rng, U, M, G, kappa):
    return np.stack([conditioned_matrix(rng, U, M, kappa) for _ in range(G)], axis=2)


def cross_user_leak(h, w):
    """Largest |H_g[u] w_g[:, v]| over u != v, relative to ||H_g[u]|| ||w_g[:, v]||."""
    gains = np.abs(np.einsum("umg,gmv->guv", h, w))
    scale = np.linalg.norm(h, axis=1).T[:, :, None] * np.linalg.norm(w, axis=1)[:, None, :]
    off = ~np.eye(h.shape[0], dtype=bool)
    return np.max(gains[:, off] / np.maximum(scale[:, off], 1e-300))


@pytest.mark.parametrize("U, M, G", [(3, 3, 5), (1, 4, 6), (3, 5, 1), (4, 8, 32)])
def test_zf_matches_pinv_oracle(rng, U, M, G):
    h = random_tensor(rng, U, M, G)
    w = digital_precoder(h, 1.3, 0.02).w
    ref = pinv_zf(h, 1.3, 0.02)
    assert np.max(np.abs(w - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert np.sum(np.abs(w) ** 2) == pytest.approx(1.3, rel=1e-12)


@pytest.mark.parametrize("kappa", [1e4, 1e8, 1e11])
@pytest.mark.parametrize("U, M", [(2, 4), (3, 3), (4, 8)])
def test_ill_conditioned_zf_matches_oracle(rng, kappa, U, M):
    # A backward-stable pseudo-inverse is accurate to about kappa * eps.
    for _ in range(5):
        h = conditioned_channel(rng, U, M, 4, kappa)
        w = digital_precoder(h, 1.0, 1e-2).w
        ref = pinv_zf(h, 1.0, 1e-2)
        assert np.max(np.abs(w - ref)) <= 10 * kappa * EPS * np.max(np.abs(ref))
        assert cross_user_leak(h, w) <= 10 * U * M * EPS


@pytest.mark.parametrize("ratio", [1e-13, 0.999e-12, 0.99e-12, 0.9e-12])
def test_zf_flags_channels_past_the_svd_threshold(rng, ratio):
    h = conditioned_channel(rng, 3, 5, 5, 1e3)
    h[:, :, 2] = conditioned_matrix(rng, 3, 5, 1.0 / ratio)
    h[:, :, 4] = conditioned_matrix(rng, 3, 5, 1.0 / ratio)
    assert np.flatnonzero(svd_flags(h)).tolist() == [2, 4]
    with pytest.raises(SingularChannelError, match="subcarrier 2$"):
        digital_precoder(h, 1.0, 0.1)


def test_zf_flags_every_channel_the_svd_test_flags():
    # Within 5e-4 of the threshold, where the QR and SVD estimates of the
    # condition number differ by rounding.
    rng = np.random.default_rng(11)
    flagged = 0
    for trial in range(600):
        U = 2 + trial % 2
        kappa = 1e12 * (1.0 + rng.uniform(-5e-4, 5e-4))
        h = conditioned_matrix(rng, U, U + trial % 3, kappa)[:, :, None]
        h *= 10 ** rng.uniform(-50, 50)
        if svd_flags(h)[0]:
            flagged += 1
            with pytest.raises(SingularChannelError, match="subcarrier 0$"):
                digital_precoder(h, 1.0, 0.1)
    assert flagged > 200


@pytest.mark.parametrize("gap", [1e-310, 1e-200])
def test_zf_flags_rows_apart_by_a_tiny_gap(gap):
    # R gets tiny diagonals whose inverse overflows: kappa_F reads inf or nan.
    h = np.zeros((3, 4, 2), dtype=complex)
    h[:, :, 0] = np.eye(3, 4)
    h[:, 0, 1] = 1.0
    h[1, 1, 1] = h[2, 2, 1] = gap
    assert svd_flags(h).tolist() == [False, True]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularChannelError, match="subcarrier 1$"):
            digital_precoder(h, 1.0, 0.1)


@pytest.mark.parametrize("zero_at, kappa_at, named", [(3, 1, 1), (1, 3, 1), (0, 0, 0)])
def test_zf_names_first_of_zero_and_ill_conditioned_subcarriers(rng, zero_at, kappa_at, named):
    h = random_tensor(rng, 2, 3, 4)
    h[:, :, kappa_at] = conditioned_matrix(rng, 2, 3, 1e13)
    h[:, :, zero_at] = 0.0
    with pytest.raises(SingularChannelError, match=f"subcarrier {named}$"):
        digital_precoder(h, 1.0, 0.1)


def test_zf_rejects_more_users_than_antennas():
    h = random_tensor(np.random.default_rng(3), U=3, M=2, G=4)
    with pytest.raises(ContractError, match="U <= M"):
        digital_precoder(h, 1.0, 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_zf_rejects_non_finite_channel_naming_subcarrier(rng, bad):
    h = random_tensor(rng, 2, 4, 5)
    h[1, 2, 3] = bad
    h[0, 0, 4] = bad
    with pytest.raises(ContractError, match="not finite at subcarrier 3$"):
        digital_precoder(h, 1.0, 0.1)


def test_waterfilling_beats_equal_split(rng):
    # Frequency-selective single-user instance: the ZF water-filler should
    # never do worse than the same directions with an equal power split.
    cfg = make_config(num_ues=1, num_bs_antennas=2, num_subcarriers=8,
                      max_delay_s=1e-6, seed=32)
    scen = generate_scenario(cfg)
    h = ChannelWorkspace(scen).state_tensor(initial_state(scen, "TFA"))
    noise = cfg.noise_power_w
    prec = digital_precoder(h, 1.0, noise)
    se_wf = sum_se_arrays(effective_channel(h, prec.w), noise)
    directions = prec.w / np.maximum(np.linalg.norm(prec.w, axis=1, keepdims=True), 1e-300)
    equal = directions * np.sqrt(1.0 / prec.w.shape[0])
    se_eq = sum_se_arrays(effective_channel(h, equal), noise)
    assert se_wf >= se_eq - 1e-12
