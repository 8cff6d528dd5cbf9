"""The benchmark's workloads, each a pure function of the workload seed.

A workload is a list of `ExperimentSpec` units. The benchmark hands each unit
to `harness.run_experiment` in turn, in a closed loop with one client; one
pass over the list is the fixed set of cells on which quality and
repeatability are checked. Every scenario seed comes from the workload seed,
through disjoint blocks: workload seed n owns scenario seeds
[n * block, (n + 1) * block).

The one-cell workloads give every cell its own scenario and cycle through
the power sweep, so a pass averages over as many scenarios as it has cells:
the run-to-run spread that comes from the seed stays small.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from mara_sim import ExperimentSpec, SCHEME_ORDER
from mara_sim.harness import reference_config, reference_experiment

REFERENCE = reference_experiment()
POWERS = REFERENCE.sweep[1]


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int       # MARA_SIM_THREADS for the untraced passes
    top_scheme: str    # scheme whose mean se_sum is reported as se_sum_mean
    units: Callable[..., list[ExperimentSpec]]  # (seed, smoke=False) -> one pass


def cells_in(spec: ExperimentSpec) -> int:
    return len(spec.seeds) * len(spec.sweep[1])


def first_cell(units: list[ExperimentSpec]) -> ExperimentSpec:
    """The first cell of a pass, as a one-cell spec (the warm-up cell)."""
    spec = units[0]
    return replace(spec, seeds=spec.seeds[:1], sweep=(spec.sweep[0], spec.sweep[1][:1]))


def opening_cells(units: list[ExperimentSpec]) -> list[ExperimentSpec]:
    """The first cells of a pass, in pass order: the first scenario seed of a
    many-cell unit, or the first five one-cell units."""
    if cells_in(units[0]) > 1:
        return [replace(units[0], seeds=units[0].seeds[:1])]
    return units[:5]


def _ref_sweep(seed: int, smoke: bool = False) -> list[ExperimentSpec]:
    # Workload seed 0 is exactly reference_experiment(): seeds 0..19.
    if smoke:
        return [replace(REFERENCE, seeds=(20 * seed,),
                        sweep=("total_power_w", POWERS[::4]))]
    return [replace(REFERENCE, seeds=tuple(range(20 * seed, 20 * seed + 20)))]


def _one_cell_units(base, schemes, block, smoke_cells, seed, smoke):
    count = smoke_cells if smoke else block
    return [ExperimentSpec(base=base, seeds=(block * seed + i,), schemes=schemes,
                           sweep=("total_power_w", (POWERS[i % len(POWERS)],)),
                           options=REFERENCE.options)
            for i in range(count)]


TFA_WIDEBAND = replace(reference_config(), num_subcarriers=256,
                       num_bs_antennas=8, num_ues=4)
LARGE_ARRAY = replace(reference_config(), num_subcarriers=32, num_bs_antennas=8,
                      num_ues=4, num_paths_per_ue=12, shod_max_degree=3)


def _tfa_wideband(seed: int, smoke: bool = False) -> list[ExperimentSpec]:
    return _one_cell_units(TFA_WIDEBAND, ("TFA",), 200, 2, seed, smoke)


def _large_array(seed: int, smoke: bool = False) -> list[ExperimentSpec]:
    return _one_cell_units(LARGE_ARRAY, SCHEME_ORDER, 50, 1, seed, smoke)


WORKLOADS = {w.name: w for w in (
    Workload("ref_sweep", threads=2, top_scheme="MARA", units=_ref_sweep),
    Workload("tfa_wideband", threads=1, top_scheme="TFA", units=_tfa_wideband),
    Workload("large_array", threads=1, top_scheme="MARA", units=_large_array),
)}
