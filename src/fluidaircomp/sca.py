"""Successive convex approximation for the antenna-position subproblem.

One step replaces the trigonometric objective by a convex quadratic surrogate
(every cosine's curvature bounded by 1) and minimizes it exactly over the
linear position constraints with a primal active-set method. The surrogate
majorizes the residual sum g(x) = sum_k |m^H h_k(x) b_k - 1|^2 and touches it
at the anchor, so the step never increases the true objective. The
alternating-optimization driver repeats the step once per round, after
refreshing the weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .apv_objective import ApvObjective
from .model import PositionSet, SolveReport

# At most this many active-set steps per QP. A step adds a blocking
# constraint to the working set, drops one, or ends the solve, so a warm
# start from the last round's active set needs one or two.
_MAX_STEPS = 200
# A multiplier counts as negative below -_DUAL_TOL times the size of the
# gradient's two terms, 2 Q x and lin: a multiplier that is 0 in exact
# arithmetic comes out of the KKT solve with their rounding, and dropping its
# constraint on the sign of that rounding can cycle.
_DUAL_TOL = 1e-10


@dataclass
class QuadraticObjective:
    """Oracle for x^T Q x + c^T x + const with symmetric Q."""

    quad: np.ndarray
    lin: np.ndarray
    const: float = 0.0

    def value(self, x: np.ndarray) -> float:
        return float(x @ self.quad @ x + self.lin @ x + self.const)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * (self.quad @ x) + self.lin

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * self.quad


def build_surrogate(objective: ApvObjective, anchor: np.ndarray) -> QuadraticObjective:
    """Convex majorant x^T quad x + lin^T x + const of g, tangent at the
    anchor (see the apv_objective module notes for the closed form). g and
    grad g at the anchor come from the objective, so a caller that has just
    evaluated g there does not steer the weights again."""
    anchor = np.asarray(anchor, dtype=float)
    phi2 = objective.spatial_freqs ** 2
    a = objective.alphas * np.abs(objective.b)
    m_abs = np.abs(objective.m)
    quad = (np.diag(m_abs * ((phi2 * a) @ (a * m_abs.sum() + 1.0)))
            - (phi2 @ a**2) * np.outer(m_abs, m_abs))
    lin = objective.gradient(anchor) - 2.0 * quad @ anchor
    const = float(objective.value(anchor) - anchor @ quad @ anchor - lin @ anchor)
    return QuadraticObjective(quad=quad, lin=lin, const=const)


def solve_qp(qp: QuadraticObjective, positions: PositionSet,
             x0: np.ndarray) -> SolveReport:
    """Exact minimizer of the surrogate qp over the position constraints, by
    the primal active-set method (Nocedal & Wright, Numerical Optimization,
    2nd ed., Algorithm 16.3) from the feasible x0.

    The working set W starts as the constraints active at x0 within
    positions.tolerance. Each step solves the KKT system
    [2Q A_W^T; A_W 0] [p; lam] = [-grad q(x); 0] once and moves along p up to
    the first blocking constraint, which joins W. A full step lands on the
    minimizer over W's face, where lam are the multipliers of x itself: the
    solve ends when none is negative (below the rounding of grad q) and
    otherwise drops the most negative.

    qp must be a build_surrogate majorant. Its Q is diagonally dominant with
    margin |m_n| sum_k phi_k^2 alpha_k |b_k| on row n, so Q is positive definite
    unless some m_n = 0; then Q's row is zero, q does not depend on x_n, and
    the KKT system is singular but consistent. It is then solved in the
    least-squares sense, which takes the shortest step.
    value_history holds q at x0 and after each step; the status is
    converged, max_iters or singular_kkt.
    """
    mat = positions.matrix
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    if np.all(np.diag(qp.quad) != 0):
        solve = np.linalg.solve
    else:
        def solve(kkt, rhs):
            return np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    dual_tol = _DUAL_TOL * (np.abs(qp.lin).max() + 2.0 * np.abs(qp.quad @ x).max())
    f = positions.values(x)
    work = list(np.flatnonzero(f >= -positions.tolerance))
    history = [qp.value(x)]
    status = "max_iters"
    for _ in range(_MAX_STEPS):
        k = len(work)
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = 2.0 * qp.quad
        kkt[n:, :n] = mat[work]
        kkt[:n, n:] = kkt[n:, :n].T
        rhs = np.zeros(n + k)
        rhs[:n] = -qp.gradient(x)
        try:
            sol = solve(kkt, rhs)
        except np.linalg.LinAlgError:
            status = "singular_kkt"
            break
        p, lam = sol[:n], sol[n:]
        # ratio test over the constraints outside W that p moves toward
        slope = mat @ p
        blocking = slope > 0
        blocking[work] = False
        ratios = np.maximum(-f[blocking], 0.0) / slope[blocking]
        if ratios.size and ratios.min() < 1.0:
            j = int(np.argmin(ratios))
            x = x + ratios[j] * p
            work.append(int(np.flatnonzero(blocking)[j]))
        else:
            x = x + p
        f = positions.values(x)
        history.append(qp.value(x))
        if len(work) > k:
            continue
        if k == 0 or lam.min() >= -dual_tol:
            status = "converged"
            break
        del work[int(np.argmin(lam))]
    return SolveReport(x=x, status=status, value_history=history)


def solve_sca(objective: ApvObjective, positions: PositionSet,
              x0: np.ndarray) -> SolveReport:
    """One majorize-minimize step on g from x0.

    x0 must be feasible; boundary contact is allowed and warm starts the
    exact QP solve (solve_qp) with the constraints x0 touches. The surrogate
    minimizer is accepted when it does not increase g; otherwise x0 is kept,
    since rounding can leave the minimizer microscopically above the anchor
    value. Either way the step is one iteration, and value_history is g at
    x0 and at the returned x. A failed QP solve returns x0 with status
    inner_qp_<status>. On tight geometry the feasible set is the single point
    x0, returned as converged after 0 iterations.
    """
    x = positions.check(x0)
    g0 = objective.value(x)
    if positions.slack == 0:
        return SolveReport(x=x, status="converged", value_history=[g0])
    surrogate = build_surrogate(objective, x)
    inner = solve_qp(surrogate, positions, x)
    if not inner.converged:
        return SolveReport(x=x, status=f"inner_qp_{inner.status}", value_history=[g0])
    g1 = objective.value(inner.x)
    if g1 <= g0:
        x = inner.x
    return SolveReport(x=x, status="converged", value_history=[g0, min(g0, g1)])
