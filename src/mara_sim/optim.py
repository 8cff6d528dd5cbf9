"""Solvers for the three spectral-efficiency maximization problems.

Per scheme, an outer loop alternates between the digital precoder (zero
forcing plus water-filling), antenna positions (projected gradient ascent
inside per-antenna balls), and pattern coefficients (retracted gradient ascent
on per-antenna unit spheres). Every sub-step keeps its candidate only if the
objective does not decrease, so the reported trace is monotone by
construction; each block ascent returns the SE it reached, so an accept
scores only the re-derived precoder. Warm starts enforce the scheme nesting:
SMA/ERA take the TFA solution and MARA the better of the SMA and ERA ones,
state, precoders and SE as they are.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractError, SingularChannelError
from .channel import (
    MOVABLE_SCHEMES,
    RECONFIGURABLE_SCHEMES,
    AntennaState,
    ChannelWorkspace,
    initial_state,
    project_to_movement_region,
    sample_movement_region,
    sample_unit_spheres,
    validate_state,
)
from .se import PrecoderSet, chain_weights, effective_channel, sinr_terms, sum_se_arrays

# Armijo sufficient-increase constant and the initial steps: a position step
# as a fraction of the antenna spacing d, and a pattern step on the spheres.
ARMIJO_C = 1e-4
POSITION_STEP = 1e-2
PATTERN_STEP = 1e-1
# Backtracking multipliers 2^-k, every one above 1e-14; halving is exact, so
# t * LADDER equals t halved k times. Most searches accept the spectral step
# (see `_ascend`) at k = 0, and the first accepted step ends a search, so the
# line search scores chunks of 2, 8 and 37 steps, one chunk per call.
LADDER = 0.5 ** np.arange(47)
LADDER_CHUNKS = ((0, 2), (2, 10), (10, 47))
SPECTRAL_CLAMP = (2.0 ** -46, 2.0 ** 10)
# The schemes whose solutions warm-start each scheme: the best of them is the
# start point, so every scheme's SE dominates its sources' (scheme nesting).
WARM_STARTS = {"TFA": (), "SMA": ("TFA",), "ERA": ("TFA",), "MARA": ("SMA", "ERA")}


@dataclass(frozen=True)
class OptimOptions:
    """Knobs for the gradient loops; defaults suit desk-scale instances. Stored as
    Python int and float: a numpy integer seed would wrap in seed + r."""

    max_outer_iters: int = 50
    inner_grad_iters: int = 100
    tol_rel: float = 1e-6
    restarts: int = 4
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # f.type is the annotation's text (future import)
            name, value = f.name, getattr(self, f.name)
            value = value.item() if isinstance(value, np.generic) else value
            if (not isinstance(value, int if f.type == "int" else (int, float))
                    or isinstance(value, bool) or not abs(value) <= sys.float_info.max):
                raise ContractError(f"{name} must be a finite {f.type}")
            object.__setattr__(self, name, value if f.type == "int" else float(value))
        if not self.tol_rel > 0:
            raise ContractError("tol_rel must be > 0")
        for name, least in (("max_outer_iters", 1), ("inner_grad_iters", 0), ("restarts", 0),
                            ("seed", 0)):
            if getattr(self, name) < least:
                raise ContractError(f"{name} must be at least {least}")


@dataclass
class OptimResult:
    state: AntennaState
    precoders: PrecoderSet
    se_trace: list[float]
    converged: bool

    def __post_init__(self):
        if np.any(np.diff(self.se_trace) < 0):
            raise ContractError(f"se_trace is not nondecreasing: {self.se_trace}")

    @property
    def se(self) -> float:
        return self.se_trace[-1]

    @property
    def iterations(self) -> int:
        return len(self.se_trace)


def water_fill(slopes: np.ndarray, total_power: float) -> np.ndarray:
    """Allocate total_power over parallel channels with per-unit-power SINRs `slopes`.

    Returns p maximizing sum log(1 + p_j * slopes_j) in closed form: with the
    floors 1/slope sorted, k channels are active for the largest k whose
    k-th floor lies below the level the budget fills over the first k. Floors
    are taken relative to the lowest one, so a budget far below the floors
    loses nothing to cancellation. The allocation is then rescaled so the
    powers sum to total_power exactly.
    """
    slopes = np.asarray(slopes, dtype=np.float64)
    if not (slopes.size and np.all((0 < slopes) & (slopes < np.inf))):
        raise ContractError("water_fill requires one or more finite, positive slopes")
    if not 0 <= total_power < np.inf:
        raise ContractError("water_fill requires a finite, nonnegative total_power")
    if total_power == 0:
        return np.zeros_like(slopes)
    floors = 1.0 / slopes
    floors = floors - floors.min()
    ordered = np.sort(floors)
    levels = (total_power + np.cumsum(ordered)) / np.arange(1, ordered.size + 1)
    active = np.flatnonzero(ordered < levels)[-1]
    powers = np.maximum(0.0, levels[active] - floors)
    return powers * (total_power / powers.sum())


def digital_precoder(h: np.ndarray, total_power: float, noise_power: float) -> PrecoderSet:
    """Zero-forcing precoders for the channel h (U, M, G) under the total power budget.

    Pseudo-inverse directions with water-filling over the G*U effective
    parallel channels; the budget is spent exactly. One stacked reduced QR
    H_g^H = Q R gives pinv(H_g) = Q R^-H. Subcarrier g is rank-deficient when R
    has a zero diagonal or kappa_F = ||R||_F ||R^-1||_F >= 0.99e12. As kappa_2 <=
    kappa_F <= U kappa_2, this flags every channel the SVD test s_min <= 1e-12
    s_max flags (the 1% margin covers their rounding, up to 4e-4 near 1e12),
    and adds only ones with kappa_2 >= 0.99e12 / U.
    """
    U, M, G = h.shape
    if U > M:
        raise ContractError(f"zero forcing needs U <= M, got U={U} UEs on M={M} antennas")
    finite = np.isfinite(h).all(axis=(0, 1))
    if not finite.all():
        raise ContractError(f"channel is not finite at subcarrier {int(np.argmin(finite))}")
    q, r = np.linalg.qr(np.conj(np.transpose(h, (2, 1, 0))))   # (G, M, U), (G, U, U)
    zero = (np.diagonal(r, axis1=1, axis2=2) == 0).any(axis=1)
    n = int(np.argmax(zero)) if zero.any() else G  # invert only before the first zero
    with np.errstate(over="ignore", invalid="ignore"):  # a near-singular R overflows
        pinv = q[:n] @ np.conj(np.swapaxes(np.linalg.inv(r[:n]), 1, 2))  # (n, M, U)
        norms = np.linalg.norm(pinv, axis=1)  # (n, U); ||R^-1||_F = ||pinv||_F
        kappa = np.linalg.norm(r[:n], axis=(1, 2)) * np.linalg.norm(norms, axis=1)
    singular = np.append(~(kappa < 0.99e12), n < G)  # inf and nan flag too
    if singular.any():
        raise SingularChannelError(
            f"channel matrix is rank-deficient at subcarrier {int(np.argmax(singular))}")
    slopes = 1.0 / (norms ** 2 * noise_power)
    powers = water_fill(slopes.ravel(), total_power).reshape(slopes.shape)
    pinv *= (np.sqrt(powers) / norms)[:, None, :]
    return PrecoderSet(pinv)


def _sensitivities(ws, gains, signal, rest, precoders):
    """Chain-rule sensitivities of sum_se at the effective channel gains and their SINR
    terms per (UE, antenna, path), shape (U, M, L): the SINR weights folded through env."""
    weights = chain_weights(gains, signal, rest)
    z = np.einsum("guv,gmv->umg", weights, precoders.w)
    return z @ np.swapaxes(ws.env, 1, 2)


def _grad_positions_all(ws: ChannelWorkspace, phases: np.ndarray, pattern: np.ndarray,
                        gains: np.ndarray, signal: np.ndarray, rest: np.ndarray,
                        precoders: PrecoderSet):
    """Gradient of sum_se in every antenna position (M, 3), at path factors, gains
    and SINR terms."""
    sens = _sensitivities(ws, gains, signal, rest, precoders)
    moment = np.imag(phases * pattern * sens) @ ws.tx_wave_vectors  # (U, M, 3)
    return 2.0 * ws.wavenumber * np.add.reduce(moment, 0)


def _grad_patterns_all(ws: ChannelWorkspace, phases: np.ndarray, gains: np.ndarray,
                       signal: np.ndarray, rest: np.ndarray,
                       precoders: PrecoderSet) -> np.ndarray:
    """Euclidean gradient of sum_se in every alpha_m (M, K), at phases, gains and
    SINR terms."""
    sens = _sensitivities(ws, gains, signal, rest, precoders)
    return 2.0 * np.add.reduce(np.real(phases * sens) @ ws.omega, 0)


def _line_search(steps, propose, objective, f):
    """First step of the ladder `steps` (t * LADDER), in order, whose
    candidate passes the Armijo test.

    propose(t) returns the candidates for the steps t, stacked on a leading
    axis, and the ascent each one promises; the first step promising none
    ends the search. objective scores a stack of candidates, one call per chunk
    of LADDER_CHUNKS, and also returns the stacked arrays the next direction
    takes. Returns (candidate, SE, copies of its slices of those arrays), or
    None when no step is accepted.
    """
    for start, end in LADDER_CHUNKS:
        cands, advance = propose(steps[start:end])
        advance = advance.tolist()
        n = next((i for i, a in enumerate(advance) if a <= 0.0), len(advance))
        if n:
            fc, *stacks = objective(cands[:n])
            for k, (value, a) in enumerate(zip(fc.tolist(), advance)):
                if value >= f + ARMIJO_C * a:
                    return cands[k].copy(), value, [s[k].copy() for s in stacks]
        if n < len(advance):
            return None
    return None


def _ascend(x, t0, direction, propose, objective, opts):
    """Armijo ascent from x, shared by positions and patterns.

    direction(x, *arrays) is the ascent direction at x; propose(x, d, t)
    returns the retracted candidates for the steps t and the ascent each one
    promises; objective scores one point or a stack of candidates, with the
    arrays that direction takes there. The first line search runs the ladder
    t0 * LADDER, each later one t * LADDER from the spectral step t = s.s / |s.y|
    of the last move s and direction change y (Barzilai & Borwein, IMA J. Numer.
    Anal. 8(1), 1988; Birgin, Martinez & Raydan, SIAM J. Optim. 10(4), 2000),
    clamped to t0 * SPECTRAL_CLAMP, or t0 when s.y = 0. Stops when the direction
    vanishes, no step is accepted, or the gain drops below tol_rel. Returns
    (x, SE at x).
    """
    x, t = x.copy(), t0
    lo, hi = t0 * SPECTRAL_CLAMP[0], t0 * SPECTRAL_CLAMP[1]
    f, *at = objective(x)
    for i in range(opts.inner_grad_iters):
        d = direction(x, *at)
        if float(np.add.reduce(d * d, None)) < 1e-24 * max(1.0, f * f):
            break
        if i:
            s, y = x - x_prev, d - d_prev
            sy = abs(float(np.add.reduce(s * y, None)))
            t = min(max(float(np.add.reduce(s * s, None)) / sy, lo), hi) if sy else t0
        found = _line_search(t * LADDER, lambda steps: propose(x, d, steps), objective, f)
        if found is None:
            break
        gain = found[1] - f
        x_prev, d_prev = x, d
        x, f, at = found
        if gain < opts.tol_rel * max(abs(f), 1e-12):
            break
    return x, f


def _ascend_positions(ws, start, coefficients, precoders, noise_power, opts):
    """Projected ascent over positions: gradient steps clamped into the balls."""
    pattern = ws.patterns(coefficients)  # fixed in this block, so built once

    def objective(cands):
        phases = ws.phases(cands)
        gains = effective_channel(ws.tensor(phases, pattern), precoders.w)
        signal, rest = sinr_terms(gains, noise_power)
        return sum_se_arrays(signal, rest), phases, gains, signal, rest

    def direction(positions, phases, gains, signal, rest):
        return _grad_positions_all(ws, phases, pattern, gains, signal, rest, precoders)

    def propose(positions, grad, t):
        cands = project_to_movement_region(ws, positions + t[:, None, None] * grad)
        return cands, np.add.reduce(grad * (cands - positions), (1, 2))

    return _ascend(start, POSITION_STEP * ws.config.antenna_spacing, direction, propose,
                   objective, opts)


def _ascend_patterns(ws, positions, start, precoders, noise_power, opts):
    """Retracted ascent over patterns: tangent steps renormalised onto the spheres."""
    phases = ws.phases(positions)  # fixed in this block, so built once

    def objective(cands):
        gains = effective_channel(ws.tensor(phases, ws.patterns(cands)), precoders.w)
        signal, rest = sinr_terms(gains, noise_power)
        return sum_se_arrays(signal, rest), gains, signal, rest

    def direction(coefficients, gains, signal, rest):
        grad = _grad_patterns_all(ws, phases, gains, signal, rest, precoders)
        return grad - np.add.reduce(grad * coefficients, 1, keepdims=True) * coefficients

    def propose(coefficients, tangent, t):
        cands = coefficients + t[:, None, None] * tangent
        cands /= np.sqrt(np.add.reduce(cands * cands, 2, keepdims=True))
        return cands, t * float(np.add.reduce(tangent * tangent, None))

    return _ascend(start, PATTERN_STEP, direction, propose, objective, opts)


def _best_of_restarts(start, draw, ascend, opts):
    """The best (x, f) over the restarts of ascend(init) -> (x, f).

    Restart 0 starts from `start`, restart r > 0 from draw(rng) with rng seeded
    opts.seed + r; without inner iterations only restart 0 runs. Ties keep the earliest.
    """
    best_x, best_f = None, -np.inf
    for r in range(max(1, opts.restarts) if opts.inner_grad_iters else 1):
        init = start if r == 0 else draw(np.random.default_rng(opts.seed + r))
        x, f = ascend(init)
        if f > best_f:
            best_x, best_f = x, f
    return best_x, best_f


def optimize_positions(ws: ChannelWorkspace, state: AntennaState, precoders: PrecoderSet,
                       opts: OptimOptions = OptimOptions()) -> tuple[AntennaState, float]:
    """Projected gradient ascent over antenna positions; best of seeded restarts.

    Checks the incoming state (`validate_state`) and starts restart 0 from its
    positions as given, restart r > 0 from random feasible ones seeded seed + r.
    Returns (state, se): the SE of the returned state under the given precoders,
    never below the incoming one's, as a stacked SE call equals its slices bitwise.
    """
    if state.scheme not in MOVABLE_SCHEMES:
        raise ContractError(f"positions are pinned for scheme {state.scheme!r}")
    validate_state(ws, state)
    noise = ws.config.noise_power_w
    best, se = _best_of_restarts(
        state.positions, lambda rng: sample_movement_region(ws, rng),
        lambda init: _ascend_positions(ws, init, state.coefficients, precoders,
                                       noise, opts), opts)
    return AntennaState(best, state.coefficients.copy(), state.scheme), se


def optimize_patterns(ws: ChannelWorkspace, state: AntennaState, precoders: PrecoderSet,
                      opts: OptimOptions = OptimOptions()) -> tuple[AntennaState, float]:
    """Retracted gradient ascent over per-antenna unit-sphere pattern coefficients;
    checks, starts and returns like `optimize_positions`."""
    if state.scheme not in RECONFIGURABLE_SCHEMES:
        raise ContractError(f"patterns are pinned for scheme {state.scheme!r}")
    validate_state(ws, state)
    noise = ws.config.noise_power_w
    best, se = _best_of_restarts(
        state.coefficients, lambda rng: sample_unit_spheres(rng, state.coefficients.shape),
        lambda init: _ascend_patterns(ws, state.positions, init, precoders,
                                      noise, opts), opts)
    return AntennaState(state.positions.copy(), best, state.scheme), se


def alternating_optimize(ws: ChannelWorkspace, scheme: str,
                         opts: OptimOptions = OptimOptions(),
                         warm: dict[str, OptimResult] | None = None) -> OptimResult:
    """Alternate precoder, position, and pattern steps for one scheme.

    `warm` may carry already-computed results for the schemes a run depends on
    (its WARM_STARTS sources and theirs in turn); missing entries are
    computed internally. Each sub-step keeps its candidate only if the
    objective does not drop, so the trace is nondecreasing and the final SE
    dominates the warm-start SE. Every solve of the call shares the workspace `ws`.
    """
    if scheme not in ws.config.schemes:
        raise ContractError(f"scheme {scheme!r} is not in the configured set")
    return _optimize_scheme(ws, scheme, opts, dict(warm or {}))


def _optimize_scheme(ws, scheme, opts, warm):
    if scheme == "TFA":
        cfg = ws.config
        state = initial_state(ws, "TFA")
        h = ws.state_tensor(state)
        precoders = digital_precoder(h, cfg.total_power_w, cfg.noise_power_w)
        se = sum_se_arrays(*sinr_terms(effective_channel(h, precoders.w), cfg.noise_power_w))
        return OptimResult(state, precoders, [se], True)

    for source in WARM_STARTS[scheme]:
        if source not in warm:
            warm[source] = _optimize_scheme(ws, source, opts, warm)
    base = max((warm[source] for source in WARM_STARTS[scheme]), key=lambda r: r.se)
    state, precoders, current = base.state.retagged(scheme), base.precoders, base.se
    trace: list[float] = []
    for _ in range(opts.max_outer_iters):
        before = current
        if scheme in MOVABLE_SCHEMES:
            state, current = optimize_positions(ws, state, precoders, opts)
            precoders, current = _accept_precoder(ws, state, precoders, current)
        if scheme in RECONFIGURABLE_SCHEMES:
            state, current = optimize_patterns(ws, state, precoders, opts)
            precoders, current = _accept_precoder(ws, state, precoders, current)
        trace.append(current)
        if current - before < opts.tol_rel * max(abs(before), 1e-12):
            return OptimResult(state, precoders, trace, True)
    return OptimResult(state, precoders, trace, False)


def _accept_precoder(ws, state, precoders, current):
    """Re-derive the ZF precoder at `state` and keep it only if the objective rises.

    `current` is the SE of `precoders` at `state`, which the block ascent that
    reached `state` already computed; only the ZF candidate is scored. Returns
    (precoders, se) at `state`; a channel singular at `state` keeps `precoders`.
    """
    cfg = ws.config
    h = ws.state_tensor(state)
    try:
        candidate = digital_precoder(h, cfg.total_power_w, cfg.noise_power_w)
    except SingularChannelError:
        return precoders, current
    se_candidate = sum_se_arrays(*sinr_terms(effective_channel(h, candidate.w),
                                             cfg.noise_power_w))
    if se_candidate > current:
        return candidate, se_candidate
    return precoders, current
