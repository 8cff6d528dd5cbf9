"""Spans around the calls into each mara_sim layer, installed from outside.

`Tracer.installed()` replaces the module attributes through which the program
calls into each layer with wrappers that time the call, and restores them on
exit; nothing in `src/` knows about the tracer. A layer's self time is its
spans' duration minus the time of the spans they enclose. Spans are folded
into per-layer totals and per-cell call counts as they close, so memory does
not grow with the number of calls. There is one span stack, so a tracer
must only be used with MARA_SIM_THREADS=1.

The traced run also checks the program's outputs at two boundaries: every
precoder spends the power budget to 1e-9 relative, and every solved state
passes `channel.validate_state`. The checks run in `trace.check` spans, so
their cost is kept out of the layers' self times.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from mara_sim.channel import validate_state
from mara_sim.errors import ContractError

POWER_RTOL = 1e-9

# (span name, module, attribute) for every call site the tracer wraps.
LAYERS = (
    ("harness.cell", "mara_sim.harness", "_run_cell"),
    ("scenario.generate", "mara_sim.harness", "generate_scenario"),
    ("optim.solve", "mara_sim.harness", "alternating_optimize"),
    ("channel.workspace", "mara_sim.channel", "ChannelWorkspace.__init__"),
    ("shod.basis", "mara_sim.channel", "build_basis"),
    ("shod.omega", "mara_sim.channel", "build_omega"),
    ("channel.tensor", "mara_sim.channel", "ChannelWorkspace.tensor"),
    ("se.sum_se", "mara_sim.optim", "sum_se_arrays"),
    ("optim.grad", "mara_sim.optim", "_grad_positions_all"),
    ("optim.grad", "mara_sim.optim", "_grad_patterns_all"),
    ("optim.ascent", "mara_sim.optim", "_ascend_positions"),
    ("optim.ascent", "mara_sim.optim", "_ascend_patterns"),
    ("optim.precoder", "mara_sim.optim", "digital_precoder"),
    ("optim.water_fill", "mara_sim.optim", "water_fill"),
)


class Tracer:
    def __init__(self):
        self.layers: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.cells: list[tuple] = []         # ((seed, sweep value), seconds, Counter)
        self.solves: list[tuple] = []        # (cell, scheme, converged)
        self.failures: list[tuple] = []      # (cell, message)
        self._stack = [["", 0.0]]            # frames of [span name, child seconds]
        self._counts = Counter()             # (parent, name) -> calls in this cell
        self._cell = None

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        return self._span(name, fn)(*args, **kwargs)

    def _span(self, name, fn):
        stack = self._stack
        layer = self.layers.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            self._counts[parent[0], name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent[1] += elapsed
                layer[0] += 1
                layer[1] += elapsed
                layer[2] += elapsed - frame[1]
        return traced

    def _checked(self, name, fn, check):
        traced = self._span(name, fn)
        traced_check = self._span("trace.check", check)

        @functools.wraps(fn)
        def checked(*args, **kwargs):
            result = traced(*args, **kwargs)
            traced_check(result, *args, **kwargs)
            return result
        return checked

    def _cell_wrapper(self, fn):
        traced = self._span("harness.cell", fn)

        @functools.wraps(fn)
        def cell(spec, seed, sweep_value, *args, **kwargs):
            outside, self._counts = self._counts, Counter()
            self._cell = (seed, sweep_value)
            start = perf_counter()
            try:
                return traced(spec, seed, sweep_value, *args, **kwargs)
            finally:
                self.cells.append((self._cell, perf_counter() - start, self._counts))
                self._counts, self._cell = outside, None
        return cell

    def _check_precoder(self, precoders, channel, total_power, *args, **kwargs):
        if abs(precoders.total_power - total_power) > POWER_RTOL * total_power:
            self.failures.append((self._cell, f"precoder spends {precoders.total_power!r}"
                                  f" of a {total_power!r} W budget"))

    def _check_solve(self, result, scenario, scheme, *args, **kwargs):
        self.solves.append((self._cell, scheme, result.converged))
        budget = scenario.config.total_power_w
        if abs(result.precoders.total_power - budget) > POWER_RTOL * budget:
            self.failures.append((self._cell, f"{scheme} precoder misses the budget"))
        try:
            validate_state(scenario, result.state, scheme)
        except ContractError as exc:
            self.failures.append((self._cell, f"{scheme} state: {exc}"))

    def _wrapper(self, name, fn):
        if name == "harness.cell":
            return self._cell_wrapper(fn)
        if name == "optim.precoder":
            return self._checked(name, fn, self._check_precoder)
        if name == "optim.solve":
            return self._checked(name, fn, self._check_solve)
        return self._span(name, fn)

    @contextmanager
    def installed(self):
        """Wrap every call site in LAYERS for the duration of the block."""
        saved = []
        try:
            for name, module, attr in LAYERS:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrapper(name, original))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def calls(self, name: str) -> int:
        return self.layers.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.layers.get(name, (0, 0.0, 0.0))[2]


def work_counters(counts: Counter) -> dict[str, int]:
    """Deterministic work done in one cell, from its (parent, span) call counts."""
    by_name = Counter()
    for (_, name), n in counts.items():
        by_name[name] += n
    return {
        "forward_evals": by_name["se.sum_se"],
        "tensor_evals": by_name["channel.tensor"],
        "grad_evals": by_name["optim.grad"],
        # Each ascent evaluates its start point once; every other sum_se
        # call it makes directly is a line-search candidate.
        "ls_candidates": counts["optim.ascent", "se.sum_se"] - by_name["optim.ascent"],
        "precoders": by_name["optim.precoder"],
        "workspaces": by_name["channel.workspace"],
        "bases": by_name["shod.basis"],
    }
