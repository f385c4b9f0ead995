"""Successive convex approximation for the antenna-position subproblem.

One step replaces the trigonometric objective by a convex quadratic surrogate
(every cosine's curvature bounded by 1) and minimizes it over the linear
position constraints with the interior-point solver. The surrogate majorizes
sum_k |w_k^H a(x) - 1|^2 and touches it at the anchor, so the step never
increases the true objective. The alternating-optimization driver repeats
the step once per round, after refreshing the weights.
"""

from __future__ import annotations

import numpy as np

from .apv_objective import ApvObjective
from .model import PositionSet
from .pdip import QuadraticObjective, SolveReport, solve_pdip


def build_surrogate(objective: ApvObjective, anchor: np.ndarray) -> QuadraticObjective:
    """Convex majorant x^T quad x + lin^T x + const of
    sum_k |w_k^H a(x) - 1|^2 = g(x) + K, tangent at the anchor (see the
    apv_objective module notes for the closed form). g and grad g at the
    anchor come from the objective, so a caller that has just evaluated g
    there does not steer the weights again."""
    anchor = np.asarray(anchor, dtype=float)
    w = objective.magnitudes
    phi2 = objective.spatial_freqs ** 2
    quad = np.diag(phi2 * (w.sum(axis=1) + 1.0) @ w) - (phi2[:, None] * w).T @ w
    lin = objective.gradient(anchor) - 2.0 * quad @ anchor
    const = float(objective.value(anchor) + objective.n_users - anchor @ quad @ anchor
                  - lin @ anchor)
    return QuadraticObjective(quad=quad, lin=lin, const=const)


def solve_sca(objective: ApvObjective, positions: PositionSet,
              x0: np.ndarray) -> SolveReport:
    """One majorize-minimize step on g from x0.

    x0 must be feasible (boundary contact allowed; the inner solver is warm
    started from a strictly interior blend). The surrogate minimizer is
    accepted when it does not increase g; otherwise x0 is kept, since solver
    tolerance can leave the minimizer microscopically above the anchor value.
    A failed inner QP returns x0 with status inner_qp_<status>. On tight
    geometry the feasible set is the single point x0, returned as converged
    after 0 iterations.
    """
    x = positions.check(x0)
    g0 = objective.value(x)
    if positions.slack == 0:
        return SolveReport(x=x, iterations=0, status="converged", value_history=[g0])
    surrogate = build_surrogate(objective, x)
    inner = solve_pdip(surrogate, positions.constraints, positions.nudge(x))
    if not inner.converged:
        return SolveReport(x=x, iterations=0, status=f"inner_qp_{inner.status}",
                           value_history=[g0])
    history = [g0]
    g1 = objective.value(inner.x)
    if g1 <= g0:
        x = inner.x
        history.append(g1)
    return SolveReport(x=x, iterations=1, status="converged", value_history=history)
