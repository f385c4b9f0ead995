"""Projected gradient descent for the antenna-position subproblem.

The feasible set (ordered positions in [0, L] with minimum spacing L0) maps to
a bounded isotonic set under z_n = x_n - (n-1)*L0, so the exact Euclidean
projection is pool-adjacent-violators followed by clipping.
"""

from __future__ import annotations

import numpy as np

from .apv_objective import ApvObjective
from .pdip import SolveReport

# Armijo backtracking: the step resets to _STEP0 every iteration and shrinks
# by _SHRINK until g falls by _ARMIJO times the linearized decrease.
_STEP0 = 0.1
_SHRINK = 0.5
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 30
# Stop once an accepted step moves no position by more than _TOL_X.
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


def project_feasible(v: np.ndarray, aperture: float, min_spacing: float) -> np.ndarray:
    """Exact Euclidean projection of v onto the position constraints.

    Subtracting the spacing ramp reduces the chain constraints to monotonicity;
    bounded isotonic regression is then unbounded isotonic regression clipped
    into the box, which stays monotone so no re-pooling is needed. Feasible
    inputs are returned unchanged, so re-projection is the identity up to the
    last ulp of the ramp round trip.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    upper = aperture - (n - 1) * min_spacing
    if upper < 0:
        raise ValueError("infeasible geometry: L < (N-1)*L0")
    ramp = min_spacing * np.arange(n)
    y = (v - ramp).tolist()
    if (y[0] >= 0.0 and y[-1] <= upper
            and all(b - a >= 0.0 for a, b in zip(y, y[1:]))):
        return v.copy()
    return np.clip(pava_nondecreasing(y), 0.0, upper) + ramp


def solve_pgd(objective: ApvObjective, x0: np.ndarray) -> SolveReport:
    """Iterate x <- project(x - gamma * grad g(x)) with Armijo backtracking.

    Every iterate is feasible and g never increases; stops when the iterate
    stalls, no backtracked step achieves sufficient decrease, or after
    _MAX_ITERS iterations.
    """
    x = objective.feasible_start(x0)
    g_cur = objective.value(x)
    history = [g_cur]
    status = "max_iters"
    iterations = 0
    for _ in range(_MAX_ITERS):
        grad = objective.gradient(x)
        gamma = _STEP0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            x_new = project_feasible(x - gamma * grad,
                                     objective.aperture, objective.min_spacing)
            g_new = objective.value(x_new)
            if g_new <= g_cur - _ARMIJO * float(grad @ (x - x_new)):
                accepted = True
                break
            gamma *= _SHRINK
        if not accepted:
            status = "no_decrease"
            break
        step = float(np.max(np.abs(x_new - x)))
        x = x_new
        g_cur = g_new
        iterations += 1
        history.append(g_cur)
        if step < _TOL_X:
            status = "converged"
            break
    return SolveReport(
        x=x,
        value=g_cur,
        iterations=iterations,
        status=status,
        converged=status == "converged",
        value_history=history,
    )
