"""Alternating optimization of the transmit coefficients, decoder, and positions.

Each round updates m (least squares), then b (per-user KKT), then the antenna
positions with the selected solver. The closed-form updates are exact
minimizers of their subproblems and the position step is guarded, so the MSE
sequence is non-increasing by construction for every method.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .apv_objective import ApvObjective, effective_weights
from .closed_form import update_b, update_m
from .model import (InfeasibleStartError, Scenario, TransceiverState,
                    interior_positions, mse, uniform_positions)
from .pdip import PdipOptions, SingularKktError, solve_pdip
from .pgd import PgdOptions, solve_pgd
from .sca import ScaOptions, solve_sca

METHODS = ("pdip", "sca", "pgd", "fpa")


def _sca_round_options() -> ScaOptions:
    # one surrogate minimization per AO round: the weights are refreshed by the
    # m/b updates anyway, and the per-round trace then reflects SCA's own
    # (slow) contraction instead of hiding it inside a converged inner loop
    return ScaOptions(max_outer=1)


def _pgd_round_options() -> PgdOptions:
    # capped per-round descent; the next round resumes from the same positions,
    # so nothing is lost and high-noise instances stop burning time on
    # sub-tolerance steps
    return PgdOptions(max_iters=50)


@dataclass
class AoOptions:
    """method is one of pdip | sca | pgd | fpa; tol_mse is the relative
    MSE-decrease stopping threshold."""

    method: str = "pdip"
    max_rounds: int = 100
    tol_mse: float = 1e-6
    pdip: PdipOptions = field(default_factory=PdipOptions)
    sca: ScaOptions = field(default_factory=_sca_round_options)
    pgd: PgdOptions = field(default_factory=_pgd_round_options)


@dataclass
class AoReport:
    """mse_history[0] is the MSE of the initial state (decoder zeroed); entry t
    is the MSE after round t. inner_iterations collects the position solver's
    iteration count per round (empty for fpa)."""

    mse_history: list
    state: TransceiverState
    rounds: int
    status: str
    converged: bool
    seconds: float
    method: str
    seed: int | None
    inner_iterations: list


def fpa_positions(n_antennas: int, aperture: float) -> np.ndarray:
    """Fixed uniform array spanning [0, L]; degenerates to [0] for N = 1."""
    return uniform_positions(n_antennas, aperture)


def ao_optimize(scenario: Scenario, options: AoOptions | None = None,
                seed: int | None = None) -> AoReport:
    """Run the alternating optimization until the MSE stalls or max_rounds.

    Deterministic: the initialization is b_k = sqrt(P_k) with a uniform array
    (shrunk strictly inside the constraints for the interior-point method),
    and no step draws randomness. The seed is only recorded in the report.
    A typed position-solver failure (infeasible or empty-interior start,
    singular KKT system, LinAlgError) keeps the last good state and is flagged
    in the status; any other exception propagates.
    """
    opts = options or AoOptions()
    if opts.method not in METHODS:
        raise ValueError(f"unknown method {opts.method!r}; expected one of {METHODS}")
    t_start = time.perf_counter()

    n = scenario.n_antennas
    if opts.method == "pdip":
        x = interior_positions(n, scenario.aperture, scenario.min_spacing)
    else:
        x = uniform_positions(n, scenario.aperture)
    b = np.sqrt(scenario.powers).astype(complex)
    m = np.zeros(n, dtype=complex)

    mse_cur = mse(b, m, scenario, x)
    history = [mse_cur]
    inner_iters: list[int] = []
    status = "max_rounds"
    rounds = 0

    for t in range(1, opts.max_rounds + 1):
        m = update_m(b, scenario, x)
        b = update_b(m, scenario, x)

        if opts.method != "fpa":
            objective = ApvObjective(
                weights=effective_weights(b, m, scenario),
                aperture=scenario.aperture,
                min_spacing=scenario.min_spacing,
            )
            try:
                if opts.method == "pdip":
                    inner = solve_pdip(objective, objective.constraints, x, opts.pdip)
                elif opts.method == "sca":
                    inner = solve_sca(objective, x, opts.sca)
                else:
                    inner = solve_pgd(objective, x, opts.pgd)
            except (InfeasibleStartError, SingularKktError, np.linalg.LinAlgError):
                status = f"position_solver_failed_round_{t}"
                rounds = t
                mse_cur = mse(b, m, scenario, x)
                history.append(mse_cur)
                break
            inner_iters.append(inner.iterations)
            # accept the new positions only if they do not increase the MSE
            if objective.value(inner.x) <= objective.value(x):
                x = inner.x

        mse_new = mse(b, m, scenario, x)
        history.append(mse_new)
        rounds = t
        rel_drop = (mse_cur - mse_new) / max(abs(mse_cur), 1e-300)
        mse_cur = mse_new
        if rel_drop < opts.tol_mse:
            status = "converged"
            break

    state = TransceiverState(b=b, m=m, x=x, mse=mse_cur)
    return AoReport(
        mse_history=history,
        state=state,
        rounds=rounds,
        status=status,
        converged=status == "converged",
        seconds=time.perf_counter() - t_start,
        method=opts.method,
        seed=seed,
        inner_iterations=inner_iters,
    )
