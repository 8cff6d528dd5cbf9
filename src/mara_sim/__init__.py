"""Simulator and optimizer for downlink multi-user MIMO-OFDM where the
base-station antennas can be spatially moved and/or have reconfigurable
radiation patterns (schemes TFA, SMA, ERA, MARA). The reference forms the
solver is checked against live in `mara_sim.checks`, not imported here."""

from .scenario import (SCHEME_ORDER, PathSet, Scenario, SystemConfig,
                       generate_scenario, load_config, subcarrier_frequencies)
from .shod import BasisSet, build_basis, build_omega
from .channel import AntennaState, ChannelWorkspace, initial_state
from .se import PrecoderSet, effective_channel, sum_se_arrays
from .optim import (OptimOptions, OptimResult, alternating_optimize, digital_precoder,
                    optimize_patterns, optimize_positions, water_fill)
from .harness import (ExperimentSpec, ResultRow, emit_csv, iter_cells, reference_config,
                      reference_experiment, run_experiment, summarize)

__all__ = [
    "SCHEME_ORDER", "PathSet", "Scenario", "SystemConfig", "generate_scenario",
    "load_config", "subcarrier_frequencies", "BasisSet", "build_basis",
    "build_omega", "AntennaState", "ChannelWorkspace", "initial_state",
    "PrecoderSet", "effective_channel", "sum_se_arrays",
    "OptimOptions", "OptimResult", "alternating_optimize", "digital_precoder",
    "optimize_patterns", "optimize_positions", "water_fill",
    "ExperimentSpec", "ResultRow", "emit_csv", "iter_cells", "reference_config",
    "reference_experiment", "run_experiment", "summarize",
]
