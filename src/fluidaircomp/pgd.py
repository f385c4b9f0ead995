"""Projected gradient descent for the antenna-position subproblem.

The feasible set (ordered positions in [0, L] with minimum spacing L0) maps to
a bounded isotonic set under z_n = x_n - (n-1)*L0, so the exact Euclidean
projection is pool-adjacent-violators followed by clipping.

Each Armijo ladder starts at the Barzilai-Borwein step of the previous accepted
iteration (the BB2 step s^T y / y^T y, capped at _STEP0), the spectral
projected gradient of Birgin, Martinez & Raydan (SIAM J. Optim. 2000) with a
monotone line search. Each trial point costs one complex exp over the K x N
steering weights, and most ladders accept their first trial, where a ladder
restarted at _STEP0 would take three or four.
"""

from __future__ import annotations

import numpy as np

from .apv_objective import ApvObjective
from .model import PositionSet
from .pdip import SolveReport

# Armijo backtracking: the ladder starts at the BB2 step, capped at _STEP0
# (_STEP0 itself on a call's first iteration or when s^T y <= 0), and shrinks
# by _SHRINK until g falls by _ARMIJO times the linearized decrease.
_STEP0 = 0.1
_SHRINK = 0.5
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 30
# Stop once a trial step, scaled up to the full step _STEP0, moves x by less
# than _TOL_X.
_TOL_X = 1e-6
# Capped per call: the driver calls once per round and the next round resumes
# from the same positions, so nothing is lost and high-noise instances stop
# burning time on sub-tolerance steps.
_MAX_ITERS = 50


def pava_nondecreasing(y: np.ndarray | list[float]) -> np.ndarray:
    """Unit-weight isotonic regression: the closest nondecreasing vector to y.

    Blocks are merged left to right with plain averages; equal adjacent means
    stay separate blocks, which leaves the output unchanged. The loop runs on
    Python floats: iterating a NumPy array yields NumPy scalars, whose
    per-element arithmetic costs more at these lengths.
    """
    # each block keeps (sum, count); means must end up nondecreasing. Only
    # strict violations are pooled, so an already-isotonic input passes
    # through bitwise unchanged.
    sums: list[float] = []
    counts: list[int] = []
    for value in np.asarray(y, dtype=float).tolist():
        cur_sum, cur_count = value, 1
        while sums and sums[-1] * cur_count > cur_sum * counts[-1]:
            cur_sum += sums.pop()
            cur_count += counts.pop()
        sums.append(cur_sum)
        counts.append(cur_count)
    out: list[float] = []
    for block_sum, block_count in zip(sums, counts):
        out += [block_sum / block_count] * block_count
    return np.array(out, dtype=float)


def project_feasible(v: np.ndarray, positions: PositionSet) -> np.ndarray:
    """Exact Euclidean projection of v onto the position set.

    Subtracting the spacing ramp reduces the chain constraints to monotonicity;
    bounded isotonic regression is then unbounded isotonic regression clipped
    into the box [0, slack], which stays monotone so no re-pooling is needed.
    Feasible inputs are returned unchanged, so re-projection is the identity
    up to the last ulp of the ramp round trip.
    """
    v = np.asarray(v, dtype=float)
    upper = positions.slack
    ramp = positions.min_spacing * np.arange(v.size)
    y = (v - ramp).tolist()
    if (y[0] >= 0.0 and y[-1] <= upper
            and all(b - a >= 0.0 for a, b in zip(y, y[1:]))):
        return v.copy()
    return np.clip(pava_nondecreasing(y), 0.0, upper) + ramp


def _trial_step(s: np.ndarray, y: np.ndarray) -> float:
    """The BB2 step s^T y / y^T y capped at _STEP0, or _STEP0 if s^T y <= 0.

    s and y are the changes in x and in grad g over the last accepted step.
    """
    sy = float(s @ y)
    return min(_STEP0, sy / float(y @ y)) if sy > 0.0 else _STEP0


def solve_pgd(objective: ApvObjective, positions: PositionSet,
              x0: np.ndarray) -> SolveReport:
    """Iterate x <- project(x - gamma * grad g(x)) with Armijo backtracking.

    gamma starts at _STEP0 on the first iteration and at the capped BB2 step
    afterwards. Every iterate is feasible and g never increases; stops when x
    is stationary, no backtracked step achieves sufficient decrease, or after
    _MAX_ITERS iterations.

    x is stationary when a trial point P(x - gamma grad), before it is
    evaluated, lies within _TOL_X * gamma / _STEP0 of x (Euclidean norm).
    ||P(x - t grad) - x|| / t does not increase in t (Bertsekas, Nonlinear
    Programming, Lemma 2.3.1), so the full _STEP0 step from the returned x
    then moves it by less than _TOL_X.
    """
    x = positions.check(x0)
    g_cur = objective.value(x)
    history = [g_cur]
    status = "max_iters"
    x_prev = grad_prev = None
    for _ in range(_MAX_ITERS):
        grad = objective.gradient(x)
        gamma = _STEP0 if x_prev is None else _trial_step(x - x_prev, grad - grad_prev)
        for _ in range(_MAX_BACKTRACKS):
            x_new = project_feasible(x - gamma * grad, positions)
            if (_STEP0 / gamma) * float(np.linalg.norm(x_new - x)) < _TOL_X:
                status = "converged"
                break
            g_new = objective.value(x_new)
            if g_new <= g_cur - _ARMIJO * float(grad @ (x - x_new)):
                break
            gamma *= _SHRINK
        else:
            status = "no_decrease"
        if status != "max_iters":
            break
        x_prev, grad_prev = x, grad
        x = x_new
        g_cur = g_new
        history.append(g_cur)
    return SolveReport(x=x, iterations=len(history) - 1, status=status,
                       value_history=history)
