"""Primal-dual interior-point method for linearly constrained minimization.

The objective is supplied as an oracle exposing value(x), gradient(x), and
hessian(x); constraints are affine (LinearConstraints). The same solver runs
both the non-convex antenna-position problem and the convex quadratic
subproblems built by the SCA routine (with zero damping the latter needs no
safeguards).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .apv_objective import LinearConstraints
from .model import InfeasibleStartError

# Backtracking safety caps; gamma shrinks by b_ls each time, so 100 steps
# reach ~1e-30 of the initial step before we declare a stall.
_MAX_BACKTRACKS = 100
_FIRST_DAMPING = 1e-6
_MAX_DAMPING_ESCALATIONS = 5


class SingularKktError(RuntimeError):
    """Raised when the KKT system stays unsolvable through damping escalation."""


@dataclass
class PdipOptions:
    """Solver knobs: barrier scaling xi > 1, duality-gap and dual-residual
    tolerances, line-search constants a_ls in (0, 0.5) and b_ls in (0, 1)."""

    xi: float = 10.0
    eps: float = 1e-8
    eps_feas: float = 1e-8
    max_iters: int = 200
    a_ls: float = 0.05
    b_ls: float = 0.5
    hessian_damping: float = 0.0


@dataclass
class SolveReport:
    """Outcome of one solver run (shared by the PDIP, SCA, and PGD drivers)."""

    x: np.ndarray
    value: float
    iterations: int
    status: str
    converged: bool
    value_history: list = field(default_factory=list)
    dual_residual: float = float("nan")
    duality_gap: float = float("nan")


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


def residuals(objective, constraints: LinearConstraints, x: np.ndarray,
              nu: np.ndarray, delta: float):
    """Dual residual grad g + Df^T nu and centrality residual -diag(nu) f - 1/delta."""
    f = constraints.values(x)
    if np.max(f) >= 0:
        raise InfeasibleStartError("residuals require a strictly feasible point")
    grad = objective.gradient(x)
    if not np.all(np.isfinite(grad)):
        raise ValueError("objective gradient is not finite")
    r_dual = grad + constraints.jacobian.T @ nu
    r_cent = -nu * f - 1.0 / delta
    return r_dual, r_cent


def newton_step(objective, constraints: LinearConstraints, x: np.ndarray,
                nu: np.ndarray, delta: float, damping: float = 0.0):
    """Solve the primal-dual Newton system for (dx, dnu).

    The objective Hessian may be indefinite or singular here; on a failed or
    inaccurate factorization a Levenberg-style rho*I term is added, escalating
    rho tenfold up to 5 times before giving up.
    """
    r_dual, r_cent = residuals(objective, constraints, x, nu, delta)
    f = constraints.values(x)
    jac = constraints.jacobian
    n = x.size
    hess = objective.hessian(x)
    rhs = -np.concatenate([r_dual, r_cent])
    rho = damping
    for _ in range(_MAX_DAMPING_ESCALATIONS + 1):
        kkt = np.block([
            [hess + rho * np.eye(n), jac.T],
            [-nu[:, None] * jac, -np.diag(f)],
        ])
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


def _residual_norm(objective, constraints, x, nu, delta) -> float:
    r_dual, r_cent = residuals(objective, constraints, x, nu, delta)
    return float(np.sqrt(np.sum(r_dual**2) + np.sum(r_cent**2)))


def solve_pdip(objective, constraints: LinearConstraints, x0: np.ndarray,
               options: PdipOptions | None = None,
               nu0: np.ndarray | None = None) -> SolveReport:
    """Run the interior-point iteration from a strictly feasible x0.

    Every accepted iterate keeps f(x) < 0 and nu > 0; the line search first
    caps the step to preserve nu > 0, then backtracks into feasibility, then
    backtracks until the KKT residual norm has decreased. Success means the
    dual residual and the surrogate duality gap eta = -f(x)^T nu are below
    their tolerances; anything else is reported in the status field.
    """
    opts = options or PdipOptions()
    x = np.asarray(x0, dtype=float).copy()
    f = constraints.values(x)
    if np.max(f) >= 0:
        raise InfeasibleStartError("x0 must satisfy f(x0) < 0 strictly")
    if nu0 is None:
        nu = -1.0 / f
    else:
        nu = np.asarray(nu0, dtype=float).copy()
        if np.min(nu) <= 0:
            raise ValueError("nu0 must be strictly positive")

    m_c = constraints.n_constraints
    history = [objective.value(x)]
    status = "max_iters"
    iterations = 0
    eta = float(-f @ nu)

    for _ in range(opts.max_iters):
        r_dual = objective.gradient(x) + constraints.jacobian.T @ nu
        if np.linalg.norm(r_dual) <= opts.eps_feas and eta <= opts.eps:
            status = "converged"
            break
        delta = opts.xi * m_c / eta
        try:
            dx, dnu = newton_step(objective, constraints, x, nu, delta,
                                  damping=opts.hessian_damping)
        except SingularKktError:
            status = "singular_kkt"
            break

        # stage 1: largest step keeping nu positive
        shrinking = dnu < 0
        gamma_max = 1.0
        if np.any(shrinking):
            gamma_max = min(1.0, 0.99 * np.min(-nu[shrinking] / dnu[shrinking]))
        gamma = gamma_max
        base_norm = _residual_norm(objective, constraints, x, nu, delta)
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            x_try = x + gamma * dx
            if np.max(constraints.values(x_try)) < 0:
                nu_try = nu + gamma * dnu
                trial_norm = _residual_norm(objective, constraints, x_try, nu_try, delta)
                if trial_norm <= (1.0 - opts.a_ls * gamma) * base_norm:
                    accepted = True
                    break
            gamma *= opts.b_ls
        if not accepted:
            status = "line_search_stall"
            break

        x = x_try
        nu = nu_try
        f = constraints.values(x)
        eta = float(-f @ nu)
        iterations += 1
        history.append(objective.value(x))

    r_dual = objective.gradient(x) + constraints.jacobian.T @ nu
    converged = status == "converged" or (
        np.linalg.norm(r_dual) <= opts.eps_feas and eta <= opts.eps)
    if converged:
        status = "converged"
    return SolveReport(
        x=x,
        value=history[-1],
        iterations=iterations,
        status=status,
        converged=converged,
        value_history=history,
        dual_residual=float(np.linalg.norm(r_dual)),
        duality_gap=eta,
    )
