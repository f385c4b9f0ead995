"""AirComp MSE minimization for a fluid-antenna receive array."""

from .apv_objective import (ApvObjective, EffectiveWeights, LinearConstraints,
                            effective_weights, position_constraints)
from .closed_form import update_b, update_m
from .driver import METHODS, AoOptions, AoReport, ao_optimize
from .experiments import ExperimentConfig, parse_config, run_sweep
from .model import (Scenario, TransceiverState, channel_matrix,
                    interior_positions, mse, sample_scenario, steering_vector,
                    uniform_positions)
from .pdip import QuadraticObjective, SolveReport, solve_pdip
from .pgd import project_feasible, solve_pgd
from .sca import build_surrogate, solve_sca

__all__ = [
    "ApvObjective", "EffectiveWeights", "LinearConstraints", "effective_weights",
    "position_constraints", "update_b", "update_m",
    "METHODS", "AoOptions", "AoReport", "ao_optimize",
    "ExperimentConfig", "parse_config", "run_sweep",
    "Scenario", "TransceiverState", "channel_matrix",
    "interior_positions", "mse", "sample_scenario",
    "steering_vector", "uniform_positions",
    "QuadraticObjective", "SolveReport", "solve_pdip",
    "project_feasible", "solve_pgd",
    "build_surrogate", "solve_sca",
]
