"""AirComp MSE minimization for a fluid-antenna receive array."""

from .apv_objective import ApvObjective, effective_weights
from .closed_form import update_b, update_m
from .driver import METHODS, AoOptions, AoReport, ao_optimize
from .experiments import ExperimentConfig, parse_config, run_sweep, sweep_reports
from .model import (PositionSet, Scenario, SolveReport, TransceiverState, channel_matrix,
                    mse, sample_scenario, steering)
from .pdip import solve_pdip
from .pgd import project_feasible, solve_pgd
from .sca import build_surrogate, solve_sca

__all__ = [
    "ApvObjective", "effective_weights", "update_b", "update_m",
    "METHODS", "AoOptions", "AoReport", "ao_optimize",
    "ExperimentConfig", "parse_config", "run_sweep", "sweep_reports",
    "PositionSet", "Scenario", "TransceiverState",
    "channel_matrix", "mse", "sample_scenario", "steering",
    "SolveReport", "solve_pdip", "project_feasible", "solve_pgd",
    "build_surrogate", "solve_sca",
]
