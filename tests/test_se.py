import math

import numpy as np
import pytest

from mara_sim.errors import ContractError
from mara_sim.scenario import generate_scenario
from mara_sim.shod import build_basis, build_omega
from mara_sim.channel import ChannelWorkspace, initial_state
from mara_sim.checks import ecsi
from mara_sim.optim import digital_precoder
from mara_sim.se import chain_weights, effective_channel, sinr_terms, sum_se, sum_se_arrays

from conftest import make_config, random_feasible_state
from reference_forms import sinr


def random_instance(rng, U=2, M=3, G=2):
    h = (rng.standard_normal((U, M, G)) + 1j * rng.standard_normal((U, M, G)))
    w = (rng.standard_normal((G, M, U)) + 1j * rng.standard_normal((G, M, U)))
    return h, w


def test_sinr_single_user_no_interference(rng):
    h, w = random_instance(rng, U=1, M=4, G=3)
    noise = 0.05
    for g in range(3):
        expected = abs(h[0, :, g] @ w[g][:, 0]) ** 2 / noise
        assert sinr(h, w, 0, g, noise) == pytest.approx(expected, rel=1e-12)


def test_sinr_orthogonal_precoder_is_zero(rng):
    h = np.zeros((1, 2, 1), dtype=complex)
    h[0, :, 0] = (1.0, 1j)
    w = np.zeros((1, 2, 1), dtype=complex)
    w[0][:, 0] = (1j, 1.0)  # h @ w = 1j + 1j ... pick orthogonal instead
    w[0][:, 0] = (1.0, 1j)  # h @ w = 1 + (1j*1j) = 0
    assert sinr(h, w, 0, 0, 0.1) == 0.0


def test_sinr_matches_hand_expansion(rng):
    h, w = random_instance(rng, U=2, M=3, G=2)
    noise = 0.02
    for u in range(2):
        for g in range(2):
            sig = abs(sum(h[u, m, g] * w[g, m, u] for m in range(3))) ** 2
            interf = 0.0
            for up in range(2):
                if up == u:
                    continue
                interf += abs(sum(h[u, m, g] * w[g, m, up] for m in range(3))) ** 2
            expected = sig / (interf + noise)
            assert sinr(h, w, u, g, noise) == pytest.approx(expected, rel=1e-12)


def test_sinr_index_contract(rng):
    h, w = random_instance(rng)
    with pytest.raises(ContractError):
        sinr(h, w, 5, 0, 0.1)
    with pytest.raises(ContractError):
        sinr(h, w, 0, -1, 0.1)


def test_sum_se_zero_precoders(rng):
    h, _ = random_instance(rng)
    zeros = np.zeros((2, 3, 2), dtype=complex)
    assert sum_se(h, zeros, 0.1) == 0.0


def test_sum_se_closed_form_snr_three():
    h = np.full((1, 1, 1), 0.5 + 0.0j)
    # |h w|^2 / noise = 3  ->  log2(4) = 2
    w = np.full((1, 1, 1), math.sqrt(3 * 0.04) / 0.5, dtype=complex)
    assert sum_se(h, w, 0.04) == pytest.approx(2.0, rel=1e-12)


def test_sum_se_replicates_over_identical_subcarriers(rng):
    cfg_single = make_config(num_subcarriers=1, max_delay_s=0.0, seed=21)
    cfg_multi = make_config(num_subcarriers=6, max_delay_s=0.0, seed=21)
    scen_s = generate_scenario(cfg_single)
    scen_m = generate_scenario(cfg_multi)
    state = initial_state(scen_s, "TFA")
    h_s = ChannelWorkspace(scen_s).state_tensor(state)
    h_m = ChannelWorkspace(scen_m).state_tensor(initial_state(scen_m, "TFA"))
    M, U = cfg_single.num_bs_antennas, cfg_single.num_ues
    w_single = (rng.standard_normal((1, M, U)) + 1j * rng.standard_normal((1, M, U)))
    w_multi = np.tile(w_single, (6, 1, 1))
    noise = cfg_single.noise_power_w
    single = sum_se(h_s, w_single, noise)
    multi = sum_se(h_m, w_multi, noise)
    assert multi == pytest.approx(6 * single, rel=1e-12)


def test_se_equivalence_h_form_vs_stacked_ecsi_form(rng):
    # The stacked form: gains = q_{u,g}^H Lambda w_{u,g} with Lambda the
    # MK x M block-diagonal of the per-antenna coefficient vectors.
    cfg = make_config(seed=22)
    scen = generate_scenario(cfg)
    state = random_feasible_state(scen, rng, scheme="MARA")
    basis = build_basis(cfg.shod_max_degree)
    h = ChannelWorkspace(scen).state_tensor(state)
    M, U, G = cfg.num_bs_antennas, cfg.num_ues, cfg.num_subcarriers
    K = basis.size
    w = (rng.standard_normal((G, M, U)) + 1j * rng.standard_normal((G, M, U)))
    w *= math.sqrt(cfg.total_power_w) / np.linalg.norm(w)
    noise = cfg.noise_power_w

    lam = np.zeros((M * K, M), dtype=complex)
    for m in range(M):
        lam[m * K:(m + 1) * K, m] = state.coefficients[m]
    omega = build_omega(basis, scen.paths)
    se_stacked = 0.0
    for g in range(G):
        f = scen.subcarrier_frequencies[g]
        for u in range(U):
            q_stack = np.concatenate([
                ecsi(scen.paths, u, omega[u], state.positions[m], scen.ue_positions[u], f,
                     scen.config.wavelength) for m in range(M)])
            row = np.conj(q_stack) @ lam  # q^H Lambda, length M
            sig = abs(row @ w[g][:, u]) ** 2
            interf = sum(abs(row @ w[g][:, up]) ** 2 for up in range(U) if up != u)
            se_stacked += math.log2(1 + sig / (interf + noise))
    assert sum_se(h, w, noise) == pytest.approx(se_stacked, abs=1e-10)


def test_single_user_se_monotone_in_power(rng):
    h, w = random_instance(rng, U=1, M=3, G=2)
    base = sum_se(h, w, 0.1)
    for c in (1.5, 2.0, 10.0):
        assert sum_se(h, c * w, 0.1) >= base


def test_sinr_decreases_with_noise(rng):
    h, w = random_instance(rng)
    for u in range(2):
        for g in range(2):
            low = sinr(h, w, u, g, 0.01)
            high = sinr(h, w, u, g, 0.05)
            assert high <= low
            if low > 0:
                assert high < low


@pytest.mark.parametrize("size", [(2, 4, 8), (4, 8, 32), (3, 6, 16), (4, 8, 256),
                                  (1, 16, 16)])
@pytest.mark.parametrize("seed", range(4))
def test_stacked_sum_se_equals_per_slice_calls_bitwise(seed, size):
    # Sizes of two or more UEs take the fold, and one UE takes einsum; batch
    # width 10 is not a multiple of the ladder's first chunk. The gradient's
    # chain weights take the same stacks.
    U, M, G = size
    for batch in (8, 10):
        rng = np.random.default_rng(seed)
        h = (rng.standard_normal((batch, U, M, G))
             + 1j * rng.standard_normal((batch, U, M, G)))
        w = rng.standard_normal((G, M, U)) + 1j * rng.standard_normal((G, M, U))
        stacked = sum_se_arrays(*sinr_terms(effective_channel(h, w), 0.05))
        assert stacked.tolist() == [sum_se_arrays(*sinr_terms(effective_channel(one, w), 0.05))
                                    for one in h]
        weights = chain_weights(effective_channel(h, w), *sinr_terms(effective_channel(h, w), 0.05))
        assert np.array_equal(weights, [chain_weights(effective_channel(one, w),
                                                      *sinr_terms(effective_channel(one, w), 0.05))
                                        for one in h])


@pytest.mark.parametrize("size", [(2, 4, 8), (4, 8, 32), (4, 8, 256), (1, 4, 8)])
def test_sum_se_matches_per_entry_sinr_on_both_kernels(size, rng):
    U, M, G = size
    h, w = random_instance(rng, U=U, M=M, G=G)
    noise = 0.05
    expected = sum(math.log2(1.0 + sinr(h, w, u, g, noise))
                   for u in range(U) for g in range(G))
    assert sum_se(h, w, noise) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("size", [(2, 4, 8), (4, 8, 32), (1, 4, 8)],
                         ids=["reference", "large", "one-UE"])
def test_sinr_terms_stack_and_carry_bitwise(size, rng):
    # The ascent scores a stack, keeps a copy of the accepted slice's terms and
    # hands them to the gradient's chain weights: the stacked terms must equal
    # the per-slice ones, and weights from the carried copies the fresh ones.
    U, M, G = size
    noise = 0.05
    h = rng.standard_normal((6, U, M, G)) + 1j * rng.standard_normal((6, U, M, G))
    w = rng.standard_normal((G, M, U)) + 1j * rng.standard_normal((G, M, U))
    gains = effective_channel(h, w)
    signal, rest = sinr_terms(gains, noise)
    assert signal.shape == rest.shape == (6, G, U)
    for k, one in enumerate(h):
        fresh_gains = effective_channel(one, w)
        fresh = sinr_terms(fresh_gains, noise)
        carried = signal[k].copy(), rest[k].copy()
        assert all(map(np.array_equal, carried, fresh))
        assert np.array_equal(chain_weights(gains[k].copy(), *carried),
                              chain_weights(fresh_gains, *fresh))
        ratio = [[sinr(one, w, u, g, noise) for u in range(U)] for g in range(G)]
        assert fresh[0] / fresh[1] == pytest.approx(np.array(ratio), rel=1e-12, abs=0)


@pytest.mark.parametrize("size", [(2, 4, 8), (3, 6, 16), (4, 8, 32), (1, 4, 8)])
@pytest.mark.parametrize("seed", range(3))
def test_se_is_invariant_to_scaling_power_and_noise_together(seed, size):
    # Zero forcing with water-filling gives every SINR as power over noise, so
    # scaling both by c leaves the SE where it was, up to rounding.
    U, M, G = size
    h, _ = random_instance(np.random.default_rng(seed), U=U, M=M, G=G)
    power, noise = 1.3, 0.02

    def se(c):
        w = digital_precoder(h, c * power, c * noise).w
        return sum_se(h, w, c * noise)

    base = se(1.0)
    for c in (1e-3, 7.0, 1e3):
        assert abs(se(c) - base) <= 1e-12 * base


@pytest.mark.parametrize("size", [(2, 4, 8), (2, 3, 16), (3, 6, 16), (4, 8, 32),
                                  (4, 4, 5)])
@pytest.mark.parametrize("seed", range(3))
def test_se_is_invariant_to_permuting_the_ues(seed, size):
    # Relabelling the UEs permutes the rows of h and the columns of w. With two
    # UEs on a multiple of 4 subcarriers it swaps neighbours in every pair the
    # SE's sum adds, so the SE keeps its bits.
    U, M, G = size
    rng = np.random.default_rng(seed)
    h, w = random_instance(rng, U=U, M=M, G=G)
    base = sum_se(h, w, 0.05)
    for perm in [rng.permutation(U) for _ in range(4)] + [np.arange(U)[::-1]]:
        moved = sum_se(h[perm], w[:, :, perm], 0.05)
        assert abs(moved - base) <= 1e-12 * base
        if U == 2:
            assert moved == base


@pytest.mark.parametrize("size", [(2, 4, 8), (2, 3, 16), (3, 6, 16), (4, 8, 32),
                                  (4, 4, 5), (1, 4, 8)])
@pytest.mark.parametrize("seed", range(3))
def test_se_is_invariant_to_a_phase_rotation_per_ue(seed, size):
    # Rotating UE u's row of h by e^{j theta_u} turns every gain of that UE by
    # the same phase, so no |gain|^2 moves: the SE stays put with w held, and
    # with the ZF precoder re-derived from the rotated channel.
    U, M, G = size
    rng = np.random.default_rng(seed)
    h, w = random_instance(rng, U=U, M=M, G=G)
    power, noise = 1.3, 0.05
    base = sum_se(h, w, noise)
    zf = sum_se(h, digital_precoder(h, power, noise).w, noise)
    for theta in rng.uniform(0.0, 2.0 * np.pi, (4, U)):
        rotated = np.exp(1j * theta)[:, None, None] * h
        assert abs(sum_se(rotated, w, noise) - base) <= 1e-12 * base
        moved = sum_se(rotated, digital_precoder(rotated, power, noise).w, noise)
        assert abs(moved - zf) <= 1e-12 * zf
