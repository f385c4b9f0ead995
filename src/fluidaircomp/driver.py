"""Alternating optimization of the transmit coefficients, decoder, and positions.

Each round updates m (least squares), then b (per-user KKT), then the antenna
positions with the selected solver. The closed-form updates are exact
minimizers of their subproblems and the position step is guarded, so the MSE
sequence is non-increasing by construction for every method.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .apv_objective import effective_weights
from .closed_form import update_b, update_m
from .model import InfeasibleStartError, Scenario, TransceiverState, mse
from .pdip import solve_pdip
from .pgd import solve_pgd
from .sca import solve_sca

METHODS = ("pdip", "sca", "pgd", "fpa")


@dataclass
class AoOptions:
    """method is one of pdip | sca | pgd | fpa; tol_mse is the relative
    MSE-decrease stopping threshold."""

    method: str = "pdip"
    max_rounds: int = 100
    tol_mse: float = 1e-6

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be at least 1, got {self.max_rounds}")
        if not (math.isfinite(self.tol_mse) and self.tol_mse >= 0):
            raise ValueError(f"tol_mse must be finite and nonnegative, got {self.tol_mse}")


@dataclass
class AoReport:
    """mse_history[0] is the MSE of the initial state (decoder zeroed); entry t
    is the MSE after round t. inner_iterations collects the position solver's
    iteration count per round (empty for fpa)."""

    mse_history: list
    state: TransceiverState
    status: str
    seconds: float
    method: str
    seed: int | None
    inner_iterations: list

    @property
    def rounds(self) -> int:
        return len(self.mse_history) - 1

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def ao_optimize(scenario: Scenario, options: AoOptions | None = None,
                seed: int | None = None) -> AoReport:
    """Run the alternating optimization until the MSE stalls or max_rounds.

    Deterministic: the initialization is b_k = sqrt(P_k) with a uniform array
    (shrunk strictly inside the constraints for the interior-point method),
    and no step draws randomness. The seed is only recorded in the report.
    A position solver that raises InfeasibleStartError keeps the last good
    state, flagged in the status; any other exception propagates. For pdip, a
    feasible set with an empty interior raises it before round 1.
    """
    opts = options or AoOptions()
    t_start = time.perf_counter()

    positions = scenario.positions
    x = positions.interior() if opts.method == "pdip" else positions.uniform()
    b = np.sqrt(scenario.powers).astype(complex)
    m = np.zeros(scenario.n_antennas, dtype=complex)

    mse_cur = mse(b, m, scenario, x)
    history = [mse_cur]
    inner_iters: list[int] = []
    status = "max_rounds"

    for t in range(1, opts.max_rounds + 1):
        m = update_m(b, scenario, x)
        b = update_b(m, scenario, x)

        if opts.method != "fpa":
            objective = effective_weights(b, m, scenario)
            try:
                if opts.method == "pdip":
                    inner = solve_pdip(objective, positions.constraints, x)
                elif opts.method == "sca":
                    inner = solve_sca(objective, positions, x)
                else:
                    inner = solve_pgd(objective, positions, x)
            except InfeasibleStartError:
                status = f"position_solver_failed_round_{t}"
                mse_cur = mse(b, m, scenario, x)
                history.append(mse_cur)
                break
            inner_iters.append(inner.iterations)
            # accept the new positions only if they do not increase the MSE;
            # every solver reports g at its start and at the x it returns
            if inner.value <= inner.value_history[0]:
                x = inner.x

        mse_new = mse(b, m, scenario, x)
        history.append(mse_new)
        rel_drop = (mse_cur - mse_new) / max(abs(mse_cur), 1e-300)
        mse_cur = mse_new
        if rel_drop < opts.tol_mse:
            status = "converged"
            break

    state = TransceiverState(b=b, m=m, x=x, mse=mse_cur)
    return AoReport(
        mse_history=history,
        state=state,
        status=status,
        seconds=time.perf_counter() - t_start,
        method=opts.method,
        seed=seed,
        inner_iterations=inner_iters,
    )
