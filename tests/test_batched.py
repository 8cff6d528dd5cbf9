"""The stacked kernels and the chunked line search against per-item references.

Each reference is the loop the stacked code replaced: one UE, one candidate,
one line-search step or one restart at a time.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from mara_sim import checks, optim, se
from mara_sim.scenario import Scenario, generate_scenario
from mara_sim.channel import (ChannelWorkspace, initial_state,
                              project_to_movement_region)
from mara_sim.se import effective_channel, sinr_terms, sum_se, sum_se_arrays
from mara_sim.optim import (OptimOptions, _ascend_patterns, _ascend_positions,
                            _grad_patterns_all, _grad_positions_all, digital_precoder)

from conftest import channel, make_config, random_feasible_state
from test_channel import SIZES, random_path_set
from test_optim import two_path_axis_scenario

BATCH = 5


def instance(seed, rng, **overrides):
    cfg = make_config(seed=seed, **overrides)
    scen = generate_scenario(cfg)
    ws = ChannelWorkspace(scen)
    state = random_feasible_state(scen, rng, scheme="MARA")
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    return cfg, scen, ws, state, prec


def random_batch(scen, rng, B):
    states = [random_feasible_state(scen, rng, scheme="MARA") for _ in range(B)]
    return (np.stack([s.positions for s in states]),
            np.stack([s.coefficients for s in states]))


def max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tensor_batch_matches_single_calls(seed, rng):
    cfg, scen, ws, state, _ = instance(seed, rng)
    positions, coefficients = random_batch(scen, rng, BATCH)
    cases = ((positions, state.coefficients), (state.positions, coefficients),
             (positions, coefficients))
    for pos, coeff in cases:
        batch = channel(ws, pos, coeff)
        assert batch.shape == (BATCH, cfg.num_ues, cfg.num_bs_antennas,
                               cfg.num_subcarriers)
        single = np.stack([channel(ws, np.broadcast_to(pos, positions.shape)[b],
                                   np.broadcast_to(coeff, coefficients.shape)[b])
                           for b in range(BATCH)])
        assert max_rel(batch, single) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sum_se_batch_matches_single_calls(seed, rng):
    cfg, scen, ws, _, prec = instance(seed, rng)
    h = channel(ws, *random_batch(scen, rng, BATCH))
    batch = sum_se(h, prec.w, cfg.noise_power_w)
    assert isinstance(batch, np.ndarray) and batch.shape == (BATCH,)
    single = [sum_se(h[b], prec.w, cfg.noise_power_w)
              for b in range(BATCH)]
    assert all(isinstance(v, float) for v in single)
    assert max_rel(batch, np.array(single)) < 1e-12
    one = sum_se(h[:1], prec.w, cfg.noise_power_w)
    assert one.shape == (1,) and one[0] == pytest.approx(single[0], rel=1e-12)


def unequal_paths_scenario(rng, path_counts=(2, 5, 1)):
    cfg = make_config(num_ues=len(path_counts), num_bs_antennas=4, seed=40)
    base = generate_scenario(cfg)
    path_sets = tuple(random_path_set(rng, L) for L in path_counts)
    return Scenario(config=cfg, initial_positions=base.initial_positions,
                    ue_positions=base.ue_positions, path_sets=path_sets,
                    subcarrier_frequencies=base.subcarrier_frequencies)


def one_ue(scen, u):
    cfg = dataclasses.replace(scen.config, num_ues=1)
    return Scenario(config=cfg, initial_positions=scen.initial_positions,
                    ue_positions=scen.ue_positions[u:u + 1],
                    path_sets=(scen.path_sets[u],),
                    subcarrier_frequencies=scen.subcarrier_frequencies)


def test_unequal_path_counts_are_zero_padded(rng):
    scen = unequal_paths_scenario(rng)
    ws = ChannelWorkspace(scen)
    assert ws.omega.shape[:2] == ws.env.shape[:2] == (3, 5)
    assert np.all(ws.env[0, 2:] == 0) and np.all(ws.omega[2, 1:] == 0)
    state = random_feasible_state(scen, rng, scheme="MARA")
    h = ws.state_tensor(state)
    for u in range(len(scen.path_sets)):
        alone = ChannelWorkspace(one_ue(scen, u)).state_tensor(state)[0]
        assert max_rel(h[u], alone) < 1e-12
    assert checks.factorization_error(scen, state) < 1e-12


def test_unequal_path_counts_gradients_match_finite_differences(rng):
    scen = unequal_paths_scenario(rng)
    cfg = scen.config
    ws = ChannelWorkspace(scen)
    state = random_feasible_state(scen, rng, scheme="MARA")
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    noise = cfg.noise_power_w

    def se(pos, coeff):
        return sum_se(channel(ws, pos, coeff), prec.w, noise)

    grad_p, grad_a = fresh_gradients(ws, state.positions, state.coefficients, prec, noise)
    for m in range(cfg.num_bs_antennas):
        fd_p = checks.fd_gradient(lambda p: se(p, state.coefficients), state.positions,
                                  m, 1e-6 * scen.wavelength)
        fd_a = checks.fd_gradient(lambda a: se(state.positions, a), state.coefficients,
                                  m, 1e-6)
        assert fd_p == pytest.approx(grad_p[m], rel=1e-5, abs=1e-6)
        assert fd_a == pytest.approx(grad_a[m], rel=1e-5, abs=1e-6)


def fresh_gradients(ws, positions, coefficients, precoders, noise_power):
    """The position and pattern gradients at a point, every factor built there."""
    phases, pattern = ws.phases(positions), ws.patterns(coefficients)
    gains = effective_channel(ws.tensor(phases, pattern), precoders.w)
    signal, rest = sinr_terms(gains, noise_power)
    return (_grad_positions_all(ws, phases, pattern, gains, signal, rest, precoders),
            _grad_patterns_all(ws, phases, gains, signal, rest, precoders))


# Reference line searches: the sequential Armijo loops the chunked ladder
# replaced, one candidate per sum_se call, halving the step each time from
# step0 at the first search and from the clamped spectral step after it. They
# build every factor fresh at each point, so they are also the reference for
# the ascent's reuse of the accepted candidate's factors. They read optim's
# constants when called, and also return why the ascent stopped.

def spectral_step(s, y, step0):
    ss, sy = float(np.sum(s * s)), abs(float(np.sum(s * y)))
    if sy == 0.0:
        return step0
    lo, hi = optim.SPECTRAL_CLAMP
    return min(max(ss / sy, step0 * lo), step0 * hi)


def reference_positions(ws, start, coefficients, precoders, noise_power, opts):
    step0 = optim.POSITION_STEP * ws.config.antenna_spacing
    positions = start.copy()
    f = sum_se(channel(ws, positions, coefficients), precoders.w, noise_power)
    reason = "iterations"
    for i in range(opts.inner_grad_iters):
        grad, _ = fresh_gradients(ws, positions, coefficients, precoders, noise_power)
        if float(np.sum(grad * grad)) < 1e-24 * max(1.0, f * f):
            reason = "gradient"
            break
        t = spectral_step(positions - prev, grad - prev_grad, step0) if i else step0
        top = t
        accepted = False
        reason = "ladder"
        while t > 1e-14 * top:
            cand = project_to_movement_region(ws, positions + t * grad)
            advance = float(np.sum(grad * (cand - positions)))
            if advance <= 0.0:
                reason = "advance"
                break
            fc = sum_se(channel(ws, cand, coefficients), precoders.w, noise_power)
            if fc >= f + optim.ARMIJO_C * advance:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        gain = fc - f
        prev, prev_grad = positions, grad
        positions, f = cand, fc
        if gain < opts.tol_rel * max(abs(f), 1e-12):
            reason = "tolerance"
            break
    return positions, f, reason


def reference_patterns(ws, positions, start, precoders, noise_power, opts):
    coefficients = start.copy()
    f = sum_se(channel(ws, positions, coefficients), precoders.w, noise_power)
    reason = "iterations"
    step0 = optim.PATTERN_STEP
    for i in range(opts.inner_grad_iters):
        _, grad = fresh_gradients(ws, positions, coefficients, precoders, noise_power)
        radial = np.sum(grad * coefficients, axis=1, keepdims=True)
        tangent = grad - radial * coefficients
        tnorm2 = float(np.sum(tangent * tangent))
        if tnorm2 < 1e-24 * max(1.0, f * f):
            reason = "gradient"
            break
        t = spectral_step(coefficients - prev, tangent - prev_tangent, step0) if i else step0
        top = t
        accepted = False
        reason = "ladder"
        while t > 1e-14 * top:
            cand = coefficients + t * tangent
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            fc = sum_se(channel(ws, positions, cand), precoders.w, noise_power)
            if fc >= f + optim.ARMIJO_C * t * tnorm2:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        gain = fc - f
        prev, prev_tangent = coefficients, tangent
        coefficients, f = cand, fc
        if gain < opts.tol_rel * max(abs(f), 1e-12):
            reason = "tolerance"
            break
    return coefficients, f, reason


ASCENT = OptimOptions(inner_grad_iters=40, tol_rel=1e-8)


def assert_same_ascent(got, ref, slot=0):
    points, values = got
    ref_point, ref_f, _ = ref
    assert np.array_equal(points[slot], ref_point)
    assert values[slot] == ref_f


@pytest.mark.parametrize("seed", [70, 71, 72, 73])
def test_position_ascent_matches_sequential_reference(seed, rng):
    cfg, scen, ws, state, prec = instance(seed, rng)
    noise = cfg.noise_power_w
    got = _ascend_positions(ws, state.positions[None], state.coefficients, prec, noise,
                            ASCENT)
    ref = reference_positions(ws, state.positions, state.coefficients, prec, noise,
                              ASCENT)
    assert_same_ascent(got, ref)


@pytest.mark.parametrize("seed", [70, 71, 72, 73])
def test_pattern_ascent_matches_sequential_reference(seed, rng):
    cfg, scen, ws, state, prec = instance(seed, rng)
    noise = cfg.noise_power_w
    got = _ascend_patterns(ws, state.positions, state.coefficients[None], prec, noise,
                           ASCENT)
    ref = reference_patterns(ws, state.positions, state.coefficients, prec, noise, ASCENT)
    assert_same_ascent(got, ref)


@pytest.mark.parametrize("block", ["positions", "patterns"])
@pytest.mark.parametrize("size", list(SIZES))
def test_gradient_from_accepted_slice_equals_fresh_gradient_bitwise(size, block, rng,
                                                                    monkeypatch):
    # The ascent takes the next gradient from the arrays of the accepted slice
    # of a stacked line-search call; each must equal the same built fresh at
    # the accepted point, bit for bit.
    cfg, scen, ws, state, prec = instance(75, rng, **SIZES[size])
    noise = cfg.noise_power_w
    accepted = []

    def recording(steps, chunks, rows, x, d, propose, objective, f, into):
        found = line_search(steps, chunks, rows, x, d, propose, objective, f, into)
        accepted.extend((into[0][r].copy(), value, [a[r].copy() for a in into[1:]])
                        for r, value in enumerate(found) if value is not None)
        return found

    line_search = optim._line_search
    monkeypatch.setattr(optim, "_line_search", recording)
    if block == "positions":
        _ascend_positions(ws, state.positions[None], state.coefficients, prec, noise, ASCENT)
    else:
        _ascend_patterns(ws, state.positions, state.coefficients[None], prec, noise, ASCENT)
    assert len(accepted) > 1
    for point, f, arrays in accepted:
        positions, coefficients = ((point, state.coefficients) if block == "positions"
                                   else (state.positions, point))
        phases, pattern = ws.phases(positions), ws.patterns(coefficients)
        gains = effective_channel(ws.tensor(phases, pattern), prec.w)
        signal, rest = sinr_terms(gains, noise)
        assert f == sum_se_arrays(signal, rest)
        if block == "positions":
            assert np.array_equal(arrays[0], phases)
            carried = arrays[1:]
            got = _grad_positions_all(ws, arrays[0], pattern, *carried, prec)
            want = fresh_gradients(ws, positions, coefficients, prec, noise)[0]
        else:
            carried = arrays
            got = _grad_patterns_all(ws, phases, *carried, prec)
            want = fresh_gradients(ws, positions, coefficients, prec, noise)[1]
        assert len(carried) == 3  # the gains and their SINR terms
        assert all(map(np.array_equal, carried, (gains, signal, rest)))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("size", list(SIZES))
def test_gradients_start_from_the_objectives_effective_channel(size, rng, monkeypatch):
    # The objective forms and scores the effective channel of each tensor it
    # builds, and hands the accepted slice to the next gradient, which forms
    # neither a tensor nor an effective channel itself.
    cfg, scen, ws, state, prec = instance(76, rng, **SIZES[size])
    calls, grad_depth = Counter(), 0

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            nonlocal grad_depth
            calls[key] += 1
            calls[key, "in a gradient"] += grad_depth > 0
            grad_depth += key == "grad"
            try:
                return fn(*args, **kwargs)
            finally:
                grad_depth -= key == "grad"
        return wrapped

    monkeypatch.setattr(ws, "tensor", counted("tensor", ws.tensor))
    monkeypatch.setattr(optim, "effective_channel", counted("gains", effective_channel))
    monkeypatch.setattr(optim, "sum_se_arrays", counted("se", sum_se_arrays))
    for name in ("_grad_positions_all", "_grad_patterns_all"):
        monkeypatch.setattr(optim, name, counted("grad", getattr(optim, name)))
    noise = cfg.noise_power_w
    _ascend_positions(ws, state.positions[None], state.coefficients, prec, noise, ASCENT)
    _ascend_patterns(ws, state.positions, state.coefficients[None], prec, noise, ASCENT)
    assert calls["grad"] > 2
    assert calls["gains"] == calls["tensor"] == calls["se"] > calls["grad"]
    assert calls["gains", "in a gradient"] == calls["tensor", "in a gradient"] == 0


@pytest.mark.parametrize("size", list(SIZES))
def test_sinr_terms_are_formed_once_per_scored_stack(size, rng, monkeypatch):
    # The objective forms the SINR terms of each stack it scores and hands the
    # accepted slice's to the next gradient, whose chain weights take them as
    # they are: no gradient forms the terms again.
    cfg, scen, ws, state, prec = instance(77, rng, **SIZES[size])
    calls, grad_depth = Counter(), 0

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            nonlocal grad_depth
            calls[key] += 1
            calls[key, "in a gradient"] += grad_depth > 0
            grad_depth += key == "grad"
            try:
                return fn(*args, **kwargs)
            finally:
                grad_depth -= key == "grad"
        return wrapped

    terms = counted("terms", sinr_terms)
    monkeypatch.setattr(optim, "sinr_terms", terms)
    monkeypatch.setattr(se, "sinr_terms", terms)
    monkeypatch.setattr(optim, "sum_se_arrays", counted("se", sum_se_arrays))
    for name in ("_grad_positions_all", "_grad_patterns_all"):
        monkeypatch.setattr(optim, name, counted("grad", getattr(optim, name)))
    noise = cfg.noise_power_w
    _ascend_positions(ws, state.positions[None], state.coefficients, prec, noise, ASCENT)
    _ascend_patterns(ws, state.positions, state.coefficients[None], prec, noise, ASCENT)
    assert calls["grad"] > 2
    assert calls["terms"] == calls["se"] > calls["grad"]
    assert calls["terms", "in a gradient"] == 0


def test_position_ascent_stops_where_no_step_advances():
    # At x = -r the two-path objective falls towards the ball's interior, so
    # the gradient points straight out of the ball: every projected step
    # lands back on the start and promises no ascent.
    scen, *_ = two_path_axis_scenario()
    cfg = scen.config
    ws = ChannelWorkspace(scen)
    state = initial_state(scen, "SMA")
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    start = np.array([[-cfg.movement_radius, 0.0, 0.0]])
    ref = reference_positions(ws, start, state.coefficients, prec,
                              cfg.noise_power_w, ASCENT)
    assert ref[2] == "advance"
    got = _ascend_positions(ws, start[None], state.coefficients, prec, cfg.noise_power_w,
                            ASCENT)
    assert_same_ascent(got, ref)
    assert np.array_equal(got[0][0], start)


def test_line_search_takes_each_rows_first_passing_step_before_any_that_stops_it():
    # Four scripted rows, each case in the first chunk of three steps: a row
    # ends at its first step promising no ascent (a NaN promise does not end
    # it), takes its first advancing step that passes Armijo, and stays
    # pending into the next chunk only when every step advanced and none passed.
    nan = float("nan")
    advances = np.array([[0.5, -1.0, 0.5, 0.5],   # the passing step lies past a stop
                         [0.5, 0.5, 0.5, 0.5],    # the second and third steps pass
                         [nan, 0.5, 0.5, 0.5],    # the NaN step's SE would pass
                         [0.5, 0.5, 0.5, 0.5]])   # passes only in the next chunk
    passes = np.array([[False, False, True, True],
                       [False, True, True, True],
                       [True, True, False, False],
                       [False, False, False, True]])
    proposed = []

    def propose(x, d, t):  # a candidate is row * 10 + step
        rows, steps = x[:, 0].astype(int), t.astype(int)
        proposed.append(rows.tolist())
        return 10.0 * x[:, None] + t[..., None], advances[rows[:, None], steps]

    def objective(cands):
        rows, steps = np.divmod(cands[:, 0].astype(int), 10)
        return np.where(passes[rows, steps], 1.0, -1.0), 2.0 * cands

    x, steps = np.arange(4.0)[:, None], np.tile(np.arange(4.0), (4, 1))
    into = (np.full((4, 1), -1.0), np.full((4, 1), -1.0))
    found = optim._line_search(steps, ((0, 3), (3, 4)), [0, 1, 2, 3], x, np.zeros_like(x),
                               propose, objective, [0.0] * 4, into)
    assert found == [None, 1.0, 1.0, 1.0]
    assert proposed == [[0, 1, 2, 3], [3]]
    assert into[0][:, 0].tolist() == [-1.0, 11.0, 21.0, 33.0]
    assert into[1][:, 0].tolist() == [-1.0, 22.0, 42.0, 66.0]


def test_ascent_that_exhausts_the_ladder_matches_reference(rng, monkeypatch):
    # With a huge Armijo constant no step passes, so every chunk of the ladder
    # is evaluated and the ascent stops where it started.
    cfg, scen, ws, state, prec = instance(74, rng)
    monkeypatch.setattr(optim, "ARMIJO_C", 1e6)
    opts = OptimOptions(inner_grad_iters=5)
    got = _ascend_patterns(ws, state.positions, state.coefficients[None], prec,
                           cfg.noise_power_w, opts)
    ref = reference_patterns(ws, state.positions, state.coefficients, prec,
                             cfg.noise_power_w, opts)
    assert ref[2] == "ladder"
    assert_same_ascent(got, ref)
    assert np.array_equal(got[0][0], state.coefficients)


@pytest.mark.parametrize("slots", [1, 2, 4])
@pytest.mark.parametrize("block", ["positions", "patterns"])
@pytest.mark.parametrize("size", list(SIZES))
def test_lockstep_slots_match_sequential_references(size, block, slots, rng):
    # A block's restarts run as the slots of one ascent: restart 0 from the
    # state, the others from random feasible starts. Each slot must end where
    # the sequential reference ends from its start, bit for bit, and the
    # caller's stack of starts must come back untouched.
    cfg, scen, ws, state, prec = instance(78, rng, **SIZES[size])
    noise = cfg.noise_power_w
    others = [random_feasible_state(scen, rng, scheme="MARA") for _ in range(slots - 1)]
    if block == "positions":
        starts = np.stack([state.positions] + [o.positions for o in others])
        given = starts.copy()
        got = _ascend_positions(ws, starts, state.coefficients, prec, noise, ASCENT)
        refs = [reference_positions(ws, start, state.coefficients, prec, noise, ASCENT)
                for start in given]
    else:
        starts = np.stack([state.coefficients] + [o.coefficients for o in others])
        given = starts.copy()
        got = _ascend_patterns(ws, state.positions, starts, prec, noise, ASCENT)
        refs = [reference_patterns(ws, state.positions, start, prec, noise, ASCENT)
                for start in given]
    assert np.array_equal(starts, given)
    assert got[0].shape == starts.shape and len(got[1]) == slots
    for slot, ref in enumerate(refs):
        assert_same_ascent(got, ref, slot)


@pytest.mark.parametrize("armijo, reasons", [
    (optim.ARMIJO_C, ["advance", "gradient", "tolerance", "tolerance"]),
    (1e6, ["advance", "gradient", "ladder", "tolerance"])], ids=["armijo-1e-4", "armijo-1e6"])
def test_lockstep_slots_that_stop_for_different_reasons(armijo, reasons, monkeypatch):
    # On the two-path axis, a slot at x = -r has no advancing step, one at the
    # phase-alignment optimum x = delta no direction, and one just off it gains
    # less than tol_rel; with ARMIJO_C = 1e6 no step passes from x = 0.2 r, so
    # its slot exhausts the ladder. The slots leave the stack at different steps.
    scen, delta, *_ = two_path_axis_scenario()
    cfg = scen.config
    ws = ChannelWorkspace(scen)
    state = initial_state(scen, "SMA")
    prec = digital_precoder(ws.state_tensor(state), cfg.total_power_w, cfg.noise_power_w)
    r = cfg.movement_radius
    starts = np.array([[[x, 0.0, 0.0]] for x in (-r, delta, 0.2 * r, delta + 1e-12)])
    monkeypatch.setattr(optim, "ARMIJO_C", armijo)
    refs = [reference_positions(ws, start, state.coefficients, prec, cfg.noise_power_w,
                                ASCENT) for start in starts]
    assert [ref[2] for ref in refs] == reasons
    got = _ascend_positions(ws, starts, state.coefficients, prec, cfg.noise_power_w,
                            ASCENT)
    for slot, ref in enumerate(refs):
        assert_same_ascent(got, ref, slot)


def test_ladder_equals_sequential_halving_bitwise():
    # The steps the sequential references take, t0 halved while above
    # 1e-14 * t0, for the position steps of three spacings and the pattern step.
    spacings = [make_config(antenna_spacing_wavelengths=w).antenna_spacing
                for w in (0.5, 0.37, 2.0)]
    for t0 in [optim.POSITION_STEP * d for d in spacings] + [optim.PATTERN_STEP]:
        steps = [t0]
        while steps[-1] * 0.5 > 1e-14 * t0:
            steps.append(steps[-1] * 0.5)
        assert (t0 * optim.LADDER).tolist() == steps
    # Every schedule, the opening and the later searches' at either row width,
    # scores each ladder step once, in ladder order.
    for schedule in optim.LADDER_CHUNKS.values():
        for chunks in schedule:
            bounds = [i for start, end in chunks for i in range(start, end)]
            assert bounds == list(range(optim.LADDER.size))
            assert all(start < end for start, end in chunks)
