"""Solvers for the three spectral-efficiency maximization problems.

Per scheme, an outer loop alternates between the digital precoder (zero
forcing plus water-filling), antenna positions (projected gradient ascent
inside per-antenna balls), and pattern coefficients (retracted gradient ascent
on per-antenna unit spheres). A block's seeded restarts advance in lockstep as
the slots of one ascent: each step scores every restart's candidates in one
call, and each slot takes the steps it would take alone. Every sub-step keeps
its candidate only if the objective does not decrease, so the trace is monotone
by construction; each block ascent returns the SE it reached, so an accept
scores only the re-derived precoder. Warm starts enforce the scheme nesting:
SMA/ERA take the TFA solution and MARA the better of the SMA and ERA ones, as they are.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields, make_dataclass, replace

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
# t * LADDER equals t halved k times. The line search scores the ladder in
# chunks, one call per chunk, and the first accepted step ends a search. Most
# later searches accept the spectral step (see `_ascend`) at k = 0. Below
# WIDE_ROW entries in one scored row (U*M*G*L) a row costs less than a call,
# and every search scores chunks of 2, 8 and 37 steps. From WIDE_ROW on a row
# costs more, so each search scores its first step alone; an opening search,
# from t0, where positions mostly backtrack 3-6 times, then scores 4 at once.
LADDER = 0.5 ** np.arange(47)
WIDE_ROW = 2048
LADDER_CHUNKS = {  # (an ascent's opening search, its later searches), by wide rows
    False: (((0, 2), (2, 10), (10, 47)),) * 2,
    True: (((0, 1), (1, 5), (5, 12), (12, 47)), ((0, 1), (1, 3), (3, 10), (10, 47))),
}
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


def _scored(h, w, noise_power):
    """The solver's forward pass: `se.sum_se`, and the gains and SINR terms a gradient
    takes; it calls `sum_se_arrays` here, where a wrapper set on the module sees it."""
    gains = effective_channel(h, w)
    signal, rest = sinr_terms(gains, noise_power)
    return sum_se_arrays(signal, rest), gains, signal, rest


def _sensitivities(ws, gains, signal, rest, precoders):
    """Chain-rule sensitivities of sum_se at the effective channel gains and their SINR
    terms per (UE, antenna, path), shape (..., U, M, L): the weights folded through env."""
    weights = chain_weights(gains, signal, rest)
    z = np.einsum("...guv,gmv->...umg", weights, precoders.w)
    return z @ np.swapaxes(ws.env, 1, 2)


def _grad_positions_all(ws: ChannelWorkspace, phases: np.ndarray, pattern: np.ndarray,
                        gains: np.ndarray, signal: np.ndarray, rest: np.ndarray,
                        precoders: PrecoderSet):
    """Gradient of sum_se in every antenna position (..., M, 3), at path factors, gains
    and SINR terms."""
    sens = _sensitivities(ws, gains, signal, rest, precoders)
    moment = np.imag(phases * pattern * sens) @ ws.tx_wave_vectors  # (..., U, M, 3)
    return 2.0 * ws.wavenumber * np.add.reduce(moment, -3)


def _grad_patterns_all(ws: ChannelWorkspace, phases: np.ndarray, gains: np.ndarray,
                       signal: np.ndarray, rest: np.ndarray,
                       precoders: PrecoderSet) -> np.ndarray:
    """Euclidean gradient of sum_se in every alpha_m (..., M, K), at phases, gains and
    SINR terms."""
    sens = _sensitivities(ws, gains, signal, rest, precoders)
    return 2.0 * np.add.reduce(np.real(phases * sens) @ ws.omega, -3)


def _line_search(steps, chunks, rows, x, d, propose, objective, f, into):
    """For each searching row of the slot stacks x and d, the first step of its ladder
    steps[row] (t * LADDER), in order, whose candidate passes the Armijo test.

    propose(x, d, t) returns each row's candidates for its steps t (rows, steps, ...)
    and the ascent each promises; a row's first step promising none ends its search.
    objective scores every searching row's candidates in one call per (start, end)
    of chunks, with the stacked arrays the next direction takes; an accepted
    candidate and its slices of those go to its row of the buffers `into`. Returns
    each row's accepted SE, or None.
    """
    found = [None] * len(x)
    for start, end in chunks:
        if not rows:
            break
        pick = slice(None) if len(rows) == len(x) else rows
        cands, advance = propose(x[pick], d[pick], steps[pick, start:end])
        scored = cands.reshape(-1, *cands.shape[2:])
        fc, *stacks = objective(scored)
        fc, n, pending = fc.tolist(), end - start, []
        for i, (r, a) in enumerate(zip(rows, advance.tolist())):
            for k, v in enumerate(a, i * n):
                if v <= 0.0:
                    break
                if fc[k] >= f[r] + ARMIJO_C * v:
                    found[r] = fc[k]
                    for buffer, stack in zip(into, (scored, *stacks)):
                        buffer[r] = stack[k]
                    break
            else:
                pending.append(r)
        rows = pending
    return found


def _ascend(x, t0, chunks, direction, propose, objective, opts):
    """Armijo ascent from each start of the stack x, shared by positions and patterns.

    The starts advance in lockstep as slots of one stack, in buffers the ascent owns,
    each taking the steps it would take alone. direction(x, *arrays) is each slot's
    ascent direction; propose(x, d, t) retracts each slot's candidates for its steps
    t; objective scores a stack of points, with the arrays direction takes there. A
    slot's first line search runs the ladder t0 * LADDER, each later one t * LADDER
    from the spectral step t = s.s / |s.y| of its last move s and direction change y
    (Barzilai & Borwein, IMA J. Numer. Anal. 8(1), 1988; Birgin, Martinez & Raydan,
    SIAM J. Optim. 10(4), 2000), clamped to t0 * SPECTRAL_CLAMP, or t0 when s.y = 0.
    chunks holds the opening and the later searches' chunks (LADDER_CHUNKS). A slot
    leaves the stack when its direction vanishes, no step is accepted, or its gain
    drops below tol_rel. Returns (points, SE at each) in slot order.
    """
    lo, hi = t0 * SPECTRAL_CLAMP[0], t0 * SPECTRAL_CLAMP[1]
    axes = tuple(range(1, x.ndim))
    f, *at = objective(x)
    f, ids, at = f.tolist(), list(range(len(x))), [np.require(a, requirements="W") for a in at]
    points, values = np.empty_like(x), list(f)  # each slot's result, set as it leaves
    x, x_prev = x.copy(), np.empty_like(x)
    for i in range(opts.inner_grad_iters):
        d = direction(x, *at)
        dd = np.add.reduce(d * d, axes).tolist()
        rows = [r for r, v in enumerate(dd) if not v < 1e-24 * max(1.0, f[r] * f[r])]
        t = [t0] * len(ids)
        if i:
            s, y = x - x_prev, d - d_prev
            sy = np.add.reduce(s * y, axes).tolist()
            ss = np.add.reduce(s * s, axes).tolist()
            t = [min(max(a / abs(b), lo), hi) if b else t0 for a, b in zip(ss, sy)]
        x_prev, x = x, x_prev
        found = _line_search(np.multiply.outer(t, LADDER), chunks[bool(i)], rows, x_prev,
                             d, propose, objective, f, (x, *at))
        keep = []
        for r, value in enumerate(found):
            if value is not None:
                gain, f[r] = value - f[r], value
            if value is not None and not gain < opts.tol_rel * max(abs(value), 1e-12):
                keep.append(r)
            else:  # the slot leaves at its accepted point, or where it stood
                points[ids[r]], values[ids[r]] = (x_prev if value is None else x)[r], f[r]
        if len(keep) < len(ids):
            ids = [ids[r] for r in keep]
            if not ids:
                break
            f = [f[r] for r in keep]
            x, x_prev, d, *at = (a[keep] for a in (x, x_prev, d, *at))
        d_prev = d
    for r, slot in enumerate(ids):
        points[slot], values[slot] = x[r], f[r]
    return points, values


def _tangent(ws, phases, coefficients, *terms):
    """The part of the pattern gradient tangent to the unit spheres at coefficients."""
    grad = _grad_patterns_all(ws, phases, *terms)
    return grad - np.add.reduce(grad * coefficients, -1, keepdims=True) * coefficients


# One record per DoF block, read by `_optimize_block` and `_ascend_block`. At a stack x
# and the path factor `fixed` the block holds, channel(ws, fixed, x) is the stacks that
# direction(ws, fixed, x, *stacks, gains, signal, rest, precoders) takes, then the
# tensor; retract(ws, steps) pulls steps onto the feasible set, and advance(x, d, t,
# cands) is the ascent each candidate promises. ascend and direction call `_ascend_*`
# and `_grad_*_all` through the module's globals, so a wrapper set there sees each call.
_Block = make_dataclass("_Block", ["schemes", "noun", "field", "sample", "ascend",
                                   "channel", "direction", "retract", "advance", "t0"])
_POSITIONS = _Block(
    schemes=MOVABLE_SCHEMES, noun="positions", field="positions",
    sample=sample_movement_region,
    ascend=lambda ws, state, x, *args: _ascend_positions(ws, x, state.coefficients, *args),
    channel=lambda ws, pattern, x: (phases := ws.phases(x), ws.tensor(phases, pattern)),
    direction=lambda ws, pattern, _, phases, *terms: _grad_positions_all(
        ws, phases, pattern, *terms),
    retract=project_to_movement_region,
    advance=lambda x, d, t, c: np.add.reduce(d[:, None] * (c - x[:, None]), (-2, -1)),
    t0=lambda ws: POSITION_STEP * ws.config.antenna_spacing)
_PATTERNS = _Block(
    schemes=RECONFIGURABLE_SCHEMES, noun="patterns", field="coefficients",
    sample=lambda ws, rng: sample_unit_spheres(rng, (ws.config.num_bs_antennas,
                                                     ws.basis.size)),
    ascend=lambda ws, state, x, *args: _ascend_patterns(ws, state.positions, x, *args),
    channel=lambda ws, phases, x: (ws.tensor(phases, ws.patterns(x)),),
    direction=_tangent,
    retract=lambda ws, c: np.divide(c, np.sqrt(np.add.reduce(c * c, -1, keepdims=True)), c),
    advance=lambda x, d, t, c: t * np.add.reduce(d * d, (-2, -1))[:, None],
    t0=lambda ws: PATTERN_STEP)


def _ascend_block(ws, block, fixed, starts, precoders, noise_power, opts):
    """`_ascend` of block from the stack starts, its path factor held at `fixed` and its
    first step block.t0(ws); the chunks follow the width U*M*G*L of one scored row."""

    def objective(cands):
        *stacks, h = block.channel(ws, fixed, cands)
        se, *terms = _scored(h, precoders.w, noise_power)
        return se, *stacks, *terms

    def propose(x, d, t):
        cands = block.retract(ws, x[:, None] + t[..., None, None] * d[:, None])
        return cands, block.advance(x, d, t, cands)

    return _ascend(starts, block.t0(ws),
                   LADDER_CHUNKS[ws.env.size * ws.config.num_bs_antennas >= WIDE_ROW],
                   lambda x, *at: block.direction(ws, fixed, x, *at, precoders), propose,
                   objective, opts)


def _ascend_positions(ws, starts, coefficients, precoders, noise_power, opts):
    """Projected ascent over positions from the stack starts (R, M, 3): gradient
    steps clamped into the balls."""
    return _ascend_block(ws, _POSITIONS, ws.patterns(coefficients), starts, precoders,
                         noise_power, opts)


def _ascend_patterns(ws, positions, starts, precoders, noise_power, opts):
    """Retracted ascent over patterns from the stack starts (R, M, K): tangent steps
    renormalised onto the spheres."""
    return _ascend_block(ws, _PATTERNS, ws.phases(positions), starts, precoders,
                         noise_power, opts)


def _optimize_block(ws, state, precoders, opts, block):
    """Gradient ascent over one block of state; the best of seeded restarts.

    Rejects a scheme that pins the block (not in block.schemes) and checks the state
    (`validate_state`). Restart 0 starts from the block's field as given, restart
    r > 0 from block.sample seeded seed + r; without inner iterations only restart 0
    runs. They run as the slots of one block.ascend call, each ending where it would
    alone, so this is the best of sequential restarts; ties keep the earliest.
    Returns (state, se): a copy of state with the best slot's field, and its SE under the
    given precoders, never below the incoming one's, as a stacked SE call equals its
    slices bitwise.
    """
    if state.scheme not in block.schemes:
        raise ContractError(f"{block.noun} are pinned for scheme {state.scheme!r}")
    validate_state(ws, state)
    count = max(1, opts.restarts) if opts.inner_grad_iters else 1
    starts = np.stack([getattr(state, block.field)] + [
        block.sample(ws, np.random.default_rng(opts.seed + r)) for r in range(1, count)])
    ends, values = block.ascend(ws, state, starts, precoders, ws.config.noise_power_w, opts)
    best = max(range(count), key=values.__getitem__)
    return replace(state, **{block.field: ends[best]}).retagged(state.scheme), values[best]


def optimize_positions(ws: ChannelWorkspace, state: AntennaState, precoders: PrecoderSet,
                       opts: OptimOptions = OptimOptions()) -> tuple[AntennaState, float]:
    """Projected gradient ascent over antenna positions (`_optimize_block`)."""
    return _optimize_block(ws, state, precoders, opts, _POSITIONS)


def optimize_patterns(ws: ChannelWorkspace, state: AntennaState, precoders: PrecoderSet,
                      opts: OptimOptions = OptimOptions()) -> tuple[AntennaState, float]:
    """Retracted gradient ascent over per-antenna unit-sphere pattern coefficients
    (`_optimize_block`)."""
    return _optimize_block(ws, state, precoders, opts, _PATTERNS)


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
    """Solve scheme from the best of its warm starts, computing missing ones into warm.
    TFA has none and moves no block: it is the nominal array under its ZF precoder.
    After each block ascent, which scored the current precoder, the ZF precoder
    re-derived at the new state is scored and kept only if the SE rises; at a singular
    channel the current precoder stays."""
    for source in WARM_STARTS[scheme]:
        if source not in warm:
            warm[source] = _optimize_scheme(ws, source, opts, warm)
    if WARM_STARTS[scheme]:
        base = max((warm[source] for source in WARM_STARTS[scheme]), key=lambda r: r.se)
        state, precoders, current = base.state.retagged(scheme), base.precoders, base.se
    else:
        state = initial_state(ws, scheme)
        precoders, current = _zero_forcing(ws, state)
    blocks = [block for block in (_POSITIONS, _PATTERNS) if scheme in block.schemes]
    trace: list[float] = []
    for _ in range(opts.max_outer_iters):
        before = current
        for block in blocks:
            state, current = _optimize_block(ws, state, precoders, opts, block)
            try:
                candidate, se = _zero_forcing(ws, state)
            except SingularChannelError:
                continue
            if se > current:
                precoders, current = candidate, se
        trace.append(current)
        if current - before < opts.tol_rel * max(abs(before), 1e-12):
            return OptimResult(state, precoders, trace, True)
    return OptimResult(state, precoders, trace, False)


def _zero_forcing(ws, state):
    """The ZF precoder at state (`digital_precoder`) and the SE it gives there."""
    cfg, h = ws.config, ws.state_tensor(state)
    precoders = digital_precoder(h, cfg.total_power_w, cfg.noise_power_w)
    return precoders, _scored(h, precoders.w, cfg.noise_power_w)[0]
