"""Successive convex approximation for the antenna-position subproblem.

Each iteration replaces the trigonometric objective by a convex quadratic
surrogate (every cosine's curvature bounded by 1), minimizes it over the
linear position constraints with the interior-point solver, and repeats from
the new point. The surrogate majorizes sum_k |w_k^H a(x) - 1|^2 and touches
it at the anchor, which makes the true objective non-increasing across
iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .apv_objective import (ApvObjective, EffectiveWeights, steered_gradient,
                            steered_value)
from .model import nudge_interior
from .pdip import PdipOptions, QuadraticObjective, SolveReport, solve_pdip


@dataclass(frozen=True)
class Surrogate:
    """Convex quadratic upper bound x^T quad x - lin^T x + const, tight at anchor."""

    quad: np.ndarray
    lin: np.ndarray
    const: float
    anchor: np.ndarray

    def value(self, x: np.ndarray) -> float:
        return float(x @ self.quad @ x - self.lin @ x + self.const)


def build_surrogate(weights: EffectiveWeights, anchor: np.ndarray) -> Surrogate:
    """Convex majorant of sum_k |w_k^H a(x) - 1|^2 = g(x) + K, tangent at the
    anchor (see the apv_objective module notes for the closed form)."""
    anchor = np.asarray(anchor, dtype=float)
    w = weights.magnitudes
    phi2 = weights.spatial_freqs ** 2
    quad = np.diag(phi2 * (w.sum(axis=1) + 1.0) @ w) - (phi2[:, None] * w).T @ w
    v, u = weights.steered(anchor)
    lin = 2.0 * quad @ anchor - steered_gradient(weights, v, u)
    const = float(steered_value(u) + weights.n_users - anchor @ quad @ anchor
                  + lin @ anchor)
    return Surrogate(quad=quad, lin=lin, const=const, anchor=anchor)


@dataclass
class ScaOptions:
    tol_x: float = 1e-6
    tol_obj: float = 1e-9
    max_outer: int = 200
    pdip: PdipOptions = field(default_factory=PdipOptions)


def solve_sca(objective: ApvObjective, x0: np.ndarray,
              options: ScaOptions | None = None) -> SolveReport:
    """Minimize g by repeated surrogate QPs over the position constraints.

    x0 must be feasible (boundary contact allowed; the inner solver is warm
    started from a strictly interior blend). Iterations stop when the iterate
    stalls in the max norm, the surrogate stops improving, or max_outer is hit.
    The reported value history tracks the true objective g, which never
    increases across iterations.
    """
    opts = options or ScaOptions()
    constraints = objective.constraints
    x = objective.feasible_start(x0)
    n_users = objective.weights.n_users
    g_cur = objective.value(x)
    history = [g_cur]
    status = "max_outer"
    iterations = 0
    for _ in range(opts.max_outer):
        surrogate = build_surrogate(objective.weights, x)
        qp = QuadraticObjective(quad=surrogate.quad, lin=-surrogate.lin,
                                const=surrogate.const)
        start = nudge_interior(x, objective.aperture, objective.min_spacing)
        inner = solve_pdip(qp, constraints, start, opts.pdip)
        if not inner.converged:
            status = f"inner_qp_{inner.status}_at_outer_{iterations}"
            break
        x_new = inner.x
        g_new = objective.value(x_new)
        iterations += 1
        if g_new > g_cur:
            # solver tolerance left us microscopically above the anchor value;
            # keep the anchor so the descent property stays exact
            status = "converged"
            break
        step = float(np.max(np.abs(x_new - x)))
        surrogate_drop = (g_cur + n_users) - surrogate.value(x_new)
        x = x_new
        g_cur = g_new
        history.append(g_cur)
        if step < opts.tol_x or surrogate_drop < opts.tol_obj:
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
