"""AirComp MSE minimization for a fluid-antenna receive array."""

from .apv_objective import (ApvObjective, EffectiveWeights, LinearConstraints,
                            effective_weights, position_constraints)
from .closed_form import update_b, update_b_single, update_m
from .driver import METHODS, AoOptions, AoReport, ao_optimize
from .experiments import ExperimentConfig, parse_config, run_sweep, trace_config
from .model import (Scenario, TransceiverState, channel, channel_matrix,
                    interior_positions, is_feasible_positions, mse,
                    sample_scenario, steering_vector, uniform_positions)
from .pdip import (QuadraticObjective, SolveReport, newton_step, residuals,
                   solve_pdip)
from .pgd import PgdOptions, pava_nondecreasing, project_feasible, solve_pgd
from .sca import ScaOptions, build_surrogate, solve_sca

__all__ = [
    "ApvObjective", "EffectiveWeights", "LinearConstraints", "effective_weights",
    "position_constraints", "update_b", "update_b_single", "update_m",
    "METHODS", "AoOptions", "AoReport", "ao_optimize",
    "ExperimentConfig", "parse_config", "run_sweep", "trace_config",
    "Scenario", "TransceiverState", "channel", "channel_matrix",
    "interior_positions", "is_feasible_positions", "mse", "sample_scenario",
    "steering_vector", "uniform_positions",
    "QuadraticObjective", "SolveReport", "newton_step", "residuals",
    "solve_pdip",
    "PgdOptions", "pava_nondecreasing", "project_feasible", "solve_pgd",
    "ScaOptions", "build_surrogate", "solve_sca",
]
