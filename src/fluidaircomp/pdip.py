"""Primal-dual interior-point method for linearly constrained minimization.

The objective is supplied as an oracle exposing value(x), gradient(x), and
hessian(x); the constraints are the affine rows f(x) = matrix @ x + offsets
<= 0 of a PositionSet, of which only matrix, values(x) and check(x0) are
read. The solver runs the non-convex antenna-position problem, whose Hessian
may be indefinite (hence the damping in newton_step). The iteration is the
primal-dual method of Boyd & Vandenberghe, Convex Optimization, section 11.7.
"""

from __future__ import annotations

import numpy as np

from .model import InfeasibleStartError, PositionSet, SolveReport

# Barrier scaling xi > 1: delta = xi * m / eta.
_XI = 10.0
# Stop when the surrogate duality gap eta = -f(x)^T nu is at most _EPS and
# the dual residual norm is at most _EPS_FEAS.
_EPS = 1e-8
_EPS_FEAS = 1e-8
_MAX_ITERS = 200
# Line search: accept a step once the KKT residual norm has fallen by the
# factor 1 - _A_LS * gamma, shrinking gamma by _B_LS between trials; 100
# backtracks reach ~1e-30 of the initial step before we declare a stall.
_A_LS = 0.05
_B_LS = 0.5
_MAX_BACKTRACKS = 100
# The first KKT solve is undamped; on failure rho*I is added to the Hessian,
# starting at _FIRST_DAMPING and growing tenfold per escalation.
_FIRST_DAMPING = 1e-6
_MAX_DAMPING_ESCALATIONS = 5


class SingularKktError(RuntimeError):
    """Raised when the KKT system stays unsolvable through damping escalation."""


def residuals(objective, positions: PositionSet, x: np.ndarray,
              nu: np.ndarray, delta: float):
    """Dual residual grad g + Df^T nu and centrality residual -diag(nu) f - 1/delta."""
    f = positions.values(x)
    if not np.all(f < 0):
        raise InfeasibleStartError("residuals require a strictly feasible point")
    grad = objective.gradient(x)
    if not np.all(np.isfinite(grad)):
        raise ValueError("objective gradient is not finite")
    r_dual = grad + positions.matrix.T @ nu
    r_cent = -nu * f - 1.0 / delta
    return r_dual, r_cent


def newton_step(objective, positions: PositionSet, x: np.ndarray,
                nu: np.ndarray, r_dual: np.ndarray, r_cent: np.ndarray):
    """Solve the primal-dual Newton system at (x, nu) with the given residuals
    for (dx, dnu).

    The objective Hessian may be indefinite or singular here; on a failed or
    inaccurate factorization a Levenberg-style rho*I term is added, escalating
    rho tenfold up to 5 times before giving up.
    """
    f = positions.values(x)
    jac = positions.matrix
    n = x.size
    hess = objective.hessian(x)
    hess_diag = np.diag(hess)
    kkt = np.block([
        [hess, jac.T],
        [-nu[:, None] * jac, -np.diag(f)],
    ])
    rhs = -np.concatenate([r_dual, r_cent])
    rho = 0.0
    for _ in range(_MAX_DAMPING_ESCALATIONS + 1):
        kkt[np.diag_indices(n)] = hess_diag + rho
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = None
        if sol is not None and np.all(np.isfinite(sol)):
            resid = np.linalg.norm(kkt @ sol - rhs)
            if resid <= 1e-10 * (1.0 + np.linalg.norm(rhs)):
                return sol[:n], sol[n:]
        rho = _FIRST_DAMPING if rho == 0.0 else 10.0 * rho
    raise SingularKktError("KKT system unsolvable after damping escalation")


def solve_pdip(objective, positions: PositionSet, x0: np.ndarray) -> SolveReport:
    """Run the interior-point iteration from a strictly feasible x0.

    Every accepted iterate keeps f(x) < 0 and nu > 0; the line search first
    caps the step to preserve nu > 0, then backtracks into feasibility, then
    backtracks until the KKT residual norm has decreased. Success means the
    dual residual and the surrogate duality gap eta = -f(x)^T nu are below
    their tolerances; anything else is reported in the status field. The
    residuals (and so the gradient) are evaluated once at x0 and once at each
    strictly feasible trial point; an accepted trial point's are reused.
    """
    x = positions.check(x0)
    f = positions.values(x)
    if not np.all(f < 0):
        raise InfeasibleStartError("x0 must satisfy f(x0) < 0 strictly")
    nu = -1.0 / f
    m_c = f.size
    eta = float(-f @ nu)
    r_dual, _ = residuals(objective, positions, x, nu, _XI * m_c / eta)
    history = [objective.value(x)]
    status = "max_iters"

    while True:
        if np.linalg.norm(r_dual) <= _EPS_FEAS and eta <= _EPS:
            status = "converged"
            break
        if len(history) > _MAX_ITERS:
            break
        delta = _XI * m_c / eta
        r_cent = -nu * f - 1.0 / delta
        try:
            dx, dnu = newton_step(objective, positions, x, nu, r_dual, r_cent)
        except SingularKktError:
            status = "singular_kkt"
            break

        # stage 1: largest step keeping nu positive
        shrinking = dnu < 0
        gamma = 1.0
        if np.any(shrinking):
            gamma = min(1.0, 0.99 * np.min(-nu[shrinking] / dnu[shrinking]))
        base_norm = float(np.sqrt(np.sum(r_dual**2) + np.sum(r_cent**2)))
        for _ in range(_MAX_BACKTRACKS):
            x_try = x + gamma * dx
            f_try = positions.values(x_try)
            if np.all(f_try < 0):
                nu_try = nu + gamma * dnu
                r_dual_try, r_cent_try = residuals(objective, positions,
                                                   x_try, nu_try, delta)
                trial_norm = float(np.sqrt(np.sum(r_dual_try**2)
                                           + np.sum(r_cent_try**2)))
                if trial_norm <= (1.0 - _A_LS * gamma) * base_norm:
                    break
            gamma *= _B_LS
        else:
            status = "line_search_stall"
            break

        x, nu, f, r_dual = x_try, nu_try, f_try, r_dual_try
        eta = float(-f @ nu)
        history.append(objective.value(x))

    return SolveReport(
        x=x,
        status=status,
        value_history=history,
        dual_residual=float(np.linalg.norm(r_dual)),
        duality_gap=eta,
    )
