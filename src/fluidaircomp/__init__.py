"""AirComp MSE minimization for a fluid-antenna receive array.

The package namespace holds the entry points; the layers below them (the
model kernels, the transceiver updates, the position objective and the
three position solvers) are imported from their modules.
"""

from .driver import METHODS, AoOptions, AoReport, ao_optimize
from .experiments import ExperimentConfig, parse_config, run_sweep, sweep_reports
from .model import Scenario, sample_scenario

__all__ = [
    "sample_scenario", "Scenario",
    "ao_optimize", "AoOptions", "AoReport", "METHODS",
    "ExperimentConfig", "parse_config", "run_sweep", "sweep_reports",
]
