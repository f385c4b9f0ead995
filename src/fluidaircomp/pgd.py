"""Projected gradient descent for the antenna-position subproblem.

The feasible set (ordered positions in [0, L] with minimum spacing L0) maps to
a bounded isotonic set under z_n = x_n - (n-1)*L0, so the exact Euclidean
projection is pool-adjacent-violators followed by clipping. A z that is
already nondecreasing skips PAVA and is only clipped: PAVA pools strict
violations only, so it would return that z bit for bit. Most infeasible trial
points are of this kind, since a short step keeps the antennas in order and
leaves the box only at an end. On the others a short step leaves a few
adjacent pairs out of order, and PAVA walks only the window from the first
to the last of them, plus the entries its pools reach: before the window no
entry pools, and past it the first entry left unpooled starts a run that
stays unpooled, so the window gives the full walk's bits.

Each Armijo ladder starts at the Barzilai-Borwein step of the previous accepted
iteration (the BB2 step s^T y / y^T y, capped at _STEP0), the spectral
projected gradient of Birgin, Martinez & Raydan (SIAM J. Optim. 2000) with a
monotone line search. Each trial point costs one complex exp over the K x N
steering weights, and most ladders accept their first trial, where a ladder
restarted at _STEP0 would take three or four.
"""

from __future__ import annotations

import math

import numpy as np

from .apv_objective import ApvObjective
from .model import PositionSet, SolveReport

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


def pava_nondecreasing(y: np.ndarray | list[float], first: int, last: int) -> np.ndarray:
    """Unit-weight isotonic regression: the closest nondecreasing vector to y.

    Blocks are merged left to right with plain averages; equal adjacent means
    stay separate blocks, which leaves the output unchanged. The loop runs on
    Python floats: iterating a NumPy array yields NumPy scalars, whose
    per-element arithmetic costs more at these lengths.

    The window [first, last] bounds where y can violate monotonicity: every
    y_i <= y_{i+1} with i < first or i > last. The entries up to first then
    go on the stack as singletons, since none pools with its predecessor.
    Past last, the first entry the top block does not absorb is pushed alone,
    and so is every later one, each no smaller than the one before, so the
    merge loop stops there. Only the pooled blocks are written into a copy of
    y. The full window (0, len(y) - 2) walks all of y.
    """
    y = np.array(y, dtype=float)
    values = y.tolist()
    n = len(values)
    # each block keeps (sum, count); means must end up nondecreasing. Only
    # strict violations are pooled, so an already-isotonic input passes
    # through bitwise unchanged.
    sums = values[:first + 1]
    counts = [1] * len(sums)
    end = n
    for j in range(first + 1, n):
        cur_sum, cur_count = values[j], 1
        while sums and sums[-1] * cur_count > cur_sum * counts[-1]:
            cur_sum += sums.pop()
            cur_count += counts.pop()
        if cur_count == 1 and j > last:
            end = j
            break
        sums.append(cur_sum)
        counts.append(cur_count)
    # every pooled block holds an entry past first, so the walk down the
    # stack ends where the untouched prefix begins
    while end > first + 1:
        block_count = counts.pop()
        block_sum = sums.pop()
        if block_count > 1:
            y[end - block_count:end] = block_sum / block_count
        end -= block_count
    return y


def project_feasible(v: np.ndarray, positions: PositionSet) -> np.ndarray:
    """Exact Euclidean projection of v onto the position set.

    Subtracting the spacing ramp reduces the chain constraints to monotonicity;
    bounded isotonic regression is then unbounded isotonic regression clipped
    into the box [0, slack], which stays monotone so no re-pooling is needed.
    Feasible inputs are returned unchanged, so re-projection is the identity
    up to the last ulp of the ramp round trip. PAVA pools only where some
    y_i > y_{i+1}, so a shifted input y with every y_i <= y_{i+1} is returned
    by it bit for bit; such a y is clipped directly, and PAVA runs only on the
    other inputs, over the window from the first to the last pair with
    y_i <= y_{i+1} false. Before that window no entry pools with its
    predecessor, and past it the first entry the pools leave alone starts a
    run that stays unpooled, so the windowed call returns the full call's
    bits. Raises ValueError unless v has shape (N,).
    """
    v = np.asarray(v, dtype=float)
    ramp = positions.ramp
    if v.shape != ramp.shape:
        raise ValueError(f"v must have shape {ramp.shape}, got {v.shape}")
    upper = positions.slack
    y = v - ramp
    # the mask as a list: at these lengths its membership test and index
    # calls cost less than NumPy reductions
    ordered = (y[:-1] <= y[1:]).tolist()
    if False not in ordered:
        if y[0] >= 0.0 and y[-1] <= upper:
            return v.copy()
    else:
        last = len(ordered) - 1 - ordered[::-1].index(False)
        y = pava_nondecreasing(y, ordered.index(False), last)
    return y.clip(0.0, upper) + ramp


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
    grad_prev = None
    for _ in range(_MAX_ITERS):
        grad = objective.gradient(x)
        gamma = _STEP0
        if grad_prev is not None:
            # the BB2 step s^T y / y^T y over the last accepted step s and the
            # change y in the gradient, capped at _STEP0; ndarray.dot is the
            # BLAS dot that @ calls, with less dispatch per call
            y = grad - grad_prev
            sy = float(step.dot(y))
            if sy > 0.0:
                gamma = min(_STEP0, sy / float(y.dot(y)))
        for _ in range(_MAX_BACKTRACKS):
            x_new = project_feasible(x - gamma * grad, positions)
            step = x_new - x
            if (_STEP0 / gamma) * math.sqrt(step.dot(step)) < _TOL_X:
                status = "converged"
                break
            g_new = objective.value(x_new)
            # grad^T step is the negated linearized decrease grad^T (x - x_new)
            if g_new <= g_cur + _ARMIJO * float(grad.dot(step)):
                break
            gamma *= _SHRINK
        else:
            status = "no_decrease"
        if status != "max_iters":
            break
        grad_prev = grad
        x = x_new
        g_cur = g_new
        history.append(g_cur)
    return SolveReport(x=x, status=status, value_history=history)
