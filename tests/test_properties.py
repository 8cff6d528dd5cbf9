"""Invariants of a whole solve, and of one block ascent, on drawn valid configs,
not hand-picked ones.

Each solve example builds a small config and solves every scheme in nesting
order, sharing warm starts as the harness does. No invariant has a tolerance
but the power budget, which water-filling rescales to its total in floating point.
Two run whole experiments: scaling power and noise by 4^k leaves every row's
bits, and two workers write the CSV of one.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mara_sim.scenario import SCHEME_ORDER, generate_scenario
from mara_sim.channel import ChannelWorkspace, validate_state
from mara_sim.harness import SWEEPABLE_PARAMS, ExperimentSpec, emit_csv, run_experiment
from mara_sim.optim import (WARM_STARTS, WIDE_ROW, OptimOptions, _ascend_patterns,
                            _ascend_positions, alternating_optimize, optimize_patterns,
                            optimize_positions)
from mara_sim.se import sum_se

from conftest import make_config, random_feasible_state
from reference_forms import mrt_precoder
from test_batched import reference_patterns, reference_positions

powers = st.floats(-6.0, 3.0).map(lambda exponent: 10.0 ** exponent)  # W, log-uniform
# Down to 1e-300 W noise, or up to 1e300 W power with power / noise below 1e300, where
# the SNR, and with it the gradients, nears a double's range.
extreme_noises = st.floats(-300.0, 3.0).map(lambda exponent: 10.0 ** exponent)
extreme_powers = st.floats(-6.0, 300.0).map(lambda exponent: 10.0 ** exponent)


@st.composite
def configs(draw, ues=3, paths=5, subcarriers=8, degree=3, powers=powers, noises=powers):
    num_ues = draw(st.integers(1, ues))
    return make_config(
        num_ues=num_ues,
        num_bs_antennas=num_ues + draw(st.integers(0, 3)),
        num_paths_per_ue=draw(st.integers(1, paths)),
        num_subcarriers=draw(st.integers(1, subcarriers)),
        shod_max_degree=draw(st.integers(0, degree)),
        antenna_spacing_wavelengths=draw(st.floats(0.05, 5.0)),
        max_delay_s=draw(st.sampled_from([0.0, 1e-7, 1e-6])),
        total_power_w=draw(powers),
        noise_power_w=draw(noises),
        seed=draw(st.integers(0, 2 ** 16)),
    )


options = st.builds(OptimOptions, max_outer_iters=st.integers(1, 2),
                    inner_grad_iters=st.integers(0, 8), restarts=st.integers(0, 4),
                    tol_rel=st.sampled_from([1e-8, 1e-4, 1e-2]),
                    seed=st.integers(0, 100))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(cfg=configs(powers=extreme_powers, noises=extreme_noises).filter(
    lambda cfg: cfg.total_power_w / cfg.noise_power_w < 1e300), opts=options)
def test_every_scheme_nests_spends_its_budget_and_stays_feasible(cfg, opts):
    ws = ChannelWorkspace(generate_scenario(cfg))
    results = {}
    for scheme in SCHEME_ORDER:
        results[scheme] = res = alternating_optimize(ws, scheme, opts, results)
        assert np.all(np.diff(res.se_trace) >= 0)
        assert all(res.se >= results[source].se for source in WARM_STARTS[scheme])
        assert abs(res.precoders.total_power - cfg.total_power_w) <= 1e-9 * cfg.total_power_w
        validate_state(ws, res.state, scheme)


def solved_rows(cfg, opts, sweep=None):
    spec = ExperimentSpec(base=cfg, seeds=(cfg.seed,), schemes=SCHEME_ORDER, sweep=sweep,
                          options=opts)
    return run_experiment(spec)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(cfg=configs(noises=extreme_noises), opts=options, k=st.integers(-3, 3))
def test_power_and_noise_times_four_to_the_k_give_the_same_rows(cfg, opts, k):
    # Exact, not approximate: zero forcing's directions do not see the power,
    # and scaling both budgets by 4^k scales water-filling's levels by 4^k and,
    # through its sqrt, the precoder by 2^k. Powers of two scale without
    # rounding, so every SINR term, gradient and Armijo decision is unchanged.
    # Other factors are not exact: x3 moves last bits, on the reference cells
    # by up to about 5e-9 relative.
    scaled = dataclasses.replace(cfg, total_power_w=cfg.total_power_w * 4.0 ** k,
                                 noise_power_w=cfg.noise_power_w * 4.0 ** k)
    rows, moved = solved_rows(cfg, opts), solved_rows(scaled, opts)
    assert all(row.ok for row in rows)
    assert ([(r.scheme, r.se_sum, r.iterations) for r in moved]
            == [(r.scheme, r.se_sum, r.iterations) for r in rows])


@st.composite
def sweeps(draw, cfg):
    # Two increasing values of one sweepable parameter, both feasible for cfg.
    name = draw(st.sampled_from(SWEEPABLE_PARAMS))
    if name == "total_power_w":
        return name, tuple(sorted(draw(st.lists(powers, min_size=2, max_size=2,
                                                unique=True))))
    low = getattr(cfg, name)
    return name, (low, low + draw(st.integers(1, 2)))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(cfg=configs(), opts=options, data=st.data())
def test_two_workers_write_the_csv_of_one(cfg, opts, data):
    # The child process solves the second cell. Vacuous on a host with one
    # usable CPU, where MARA_SIM_THREADS=2 runs a single worker.
    sweep = data.draw(sweeps(cfg))
    written = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for workers in ("1", "2"):
            mp.setenv("MARA_SIM_THREADS", workers)
            path = Path(tmp) / f"{workers}.csv"
            emit_csv(solved_rows(cfg, opts, sweep), path, include_wall_time=False)
            written.append(path.read_bytes())
    assert written[0] == written[1]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(cfg=configs(), opts=options, data=st.data())
def test_two_runs_in_one_process_write_the_same_bytes(cfg, opts, data):
    # Nothing a run leaves behind in the process (caches, pools, RNG state)
    # changes the next run's rows.
    sweep = data.draw(sweeps(cfg))
    written = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in ("first", "second"):
            path = Path(tmp) / f"{run}.csv"
            emit_csv(solved_rows(cfg, opts, sweep), path, include_wall_time=False)
            written.append(path.read_bytes())
    assert written[0] == written[1]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(cfg=configs(ues=4, paths=12, subcarriers=32, degree=3), opts=options,
       state_seed=st.integers(0, 2 ** 16))
def test_a_blocks_returned_se_is_its_states_se(cfg, opts, state_seed):
    # The ascent scores stacks and keeps the accepted slice's arrays for the
    # next gradient; the SE a block returns must still be its state's, bit for bit.
    scen = generate_scenario(cfg)
    ws = ChannelWorkspace(scen)
    state = random_feasible_state(scen, np.random.default_rng(state_seed), "MARA")
    prec = mrt_precoder(ws.state_tensor(state), cfg.total_power_w)
    for optimize in (optimize_positions, optimize_patterns):
        out, se = optimize(ws, state, prec, opts)
        assert se == sum_se(ws.state_tensor(out), prec.w, cfg.noise_power_w)


@st.composite
def ascent_configs(draw, wide):
    # Rows of U*M*G*L entries below WIDE_ROW, where the line search's chunks
    # change, or from it on: G is drawn last, on the side asked for.
    num_ues = draw(st.integers(1, 4))
    antennas = draw(st.integers(num_ues, 8))
    paths = draw(st.integers(1, 12))
    others = num_ues * antennas * paths
    assume(not wide or others * 32 >= WIDE_ROW)
    subcarriers = draw(st.integers(-(-WIDE_ROW // others), 32) if wide
                       else st.integers(1, min(32, (WIDE_ROW - 1) // others)))
    cfg = make_config(num_ues=num_ues, num_bs_antennas=antennas, num_paths_per_ue=paths,
                      num_subcarriers=subcarriers, shod_max_degree=draw(st.integers(0, 3)),
                      seed=draw(st.integers(0, 99)))
    ws = ChannelWorkspace(generate_scenario(cfg))
    assert (ws.env.size * antennas >= WIDE_ROW) == wide
    return ws


@pytest.mark.parametrize("wide", [False, True], ids=["narrow-rows", "wide-rows"])
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data(), slots=st.integers(1, 4), iters=st.integers(1, 10),
       state_seed=st.integers(0, 2 ** 16))
def test_each_slot_ascends_as_the_sequential_reference(wide, data, slots, iters,
                                                       state_seed):
    # Whatever chunks the line search scores, each slot takes the steps the
    # one-candidate-at-a-time reference takes from its start, bit for bit.
    ws = data.draw(ascent_configs(wide))
    cfg, rng = ws.config, np.random.default_rng(state_seed)
    states = [random_feasible_state(ws, rng, "MARA") for _ in range(slots)]
    state, noise = states[0], cfg.noise_power_w
    prec = mrt_precoder(ws.state_tensor(state), cfg.total_power_w)
    opts = OptimOptions(inner_grad_iters=iters, tol_rel=1e-8)
    positions = np.stack([s.positions for s in states])
    coefficients = np.stack([s.coefficients for s in states])
    for (points, values), refs in (
            (_ascend_positions(ws, positions, state.coefficients, prec, opts),
             [reference_positions(ws, p, state.coefficients, prec, noise, opts)
              for p in positions]),
            (_ascend_patterns(ws, state.positions, coefficients, prec, opts),
             [reference_patterns(ws, state.positions, c, prec, noise, opts)
              for c in coefficients])):
        for slot, (point, f, _) in enumerate(refs):
            assert np.array_equal(points[slot], point) and values[slot] == f
