"""Projected gradient descent for the antenna-position subproblem.

The feasible set (ordered positions in [0, L] with minimum spacing L0) maps to
a bounded isotonic set under z_n = x_n - (n-1)*L0, so the exact Euclidean
projection is pool-adjacent-violators followed by clipping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .apv_objective import ApvObjective
from .pdip import SolveReport


def pava_nondecreasing(y: np.ndarray) -> np.ndarray:
    """Unit-weight isotonic regression: the closest nondecreasing vector to y.

    Blocks are merged left to right with plain averages; equal adjacent means
    stay separate blocks, which leaves the output unchanged.
    """
    y = np.asarray(y, dtype=float)
    # each block keeps (sum, count); means must end up nondecreasing. Only
    # strict violations are pooled, so an already-isotonic input passes
    # through bitwise unchanged.
    sums: list[float] = []
    counts: list[int] = []
    for value in y:
        cur_sum, cur_count = float(value), 1
        while sums and sums[-1] * cur_count > cur_sum * counts[-1]:
            cur_sum += sums.pop()
            cur_count += counts.pop()
        sums.append(cur_sum)
        counts.append(cur_count)
    out = np.empty_like(y)
    pos = 0
    for block_sum, block_count in zip(sums, counts):
        out[pos:pos + block_count] = block_sum / block_count
        pos += block_count
    return out


def _isotonic_feasible(y: np.ndarray, upper: float) -> bool:
    return bool(y[0] >= 0.0 and y[-1] <= upper and np.all(np.diff(y) >= 0.0))


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
    y = v - ramp
    if _isotonic_feasible(y, upper):
        return v.copy()
    return np.clip(pava_nondecreasing(y), 0.0, upper) + ramp


@dataclass
class PgdOptions:
    """Armijo backtracking schedule; the step resets to step0 every iteration."""

    step0: float = 0.1
    shrink: float = 0.5
    armijo: float = 1e-4
    max_backtracks: int = 30
    tol_x: float = 1e-6
    max_iters: int = 200


def solve_pgd(objective: ApvObjective, x0: np.ndarray,
              options: PgdOptions | None = None) -> SolveReport:
    """Iterate x <- project(x - gamma * grad g(x)) with Armijo backtracking.

    Every iterate is feasible and g never increases; stops when the iterate
    stalls, no backtracked step achieves sufficient decrease, or max_iters.
    """
    opts = options or PgdOptions()
    x = objective.feasible_start(x0)
    g_cur = objective.value(x)
    history = [g_cur]
    status = "max_iters"
    iterations = 0
    for _ in range(opts.max_iters):
        grad = objective.gradient(x)
        gamma = opts.step0
        accepted = False
        for _ in range(opts.max_backtracks):
            x_new = project_feasible(x - gamma * grad,
                                     objective.aperture, objective.min_spacing)
            g_new = objective.value(x_new)
            if g_new <= g_cur - opts.armijo * float(grad @ (x - x_new)):
                accepted = True
                break
            gamma *= opts.shrink
        if not accepted:
            status = "no_decrease"
            break
        step = float(np.max(np.abs(x_new - x)))
        x = x_new
        g_cur = g_new
        iterations += 1
        history.append(g_cur)
        if step < opts.tol_x:
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
