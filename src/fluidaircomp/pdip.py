"""Primal-dual interior-point method for linearly constrained minimization.

The objective is supplied as an oracle exposing value(x), gradient(x), and
hessian(x); the constraints are the affine rows f(x) = matrix @ x + offsets
<= 0 of a PositionSet, of which only matrix, values(x) and check(x0) are
read. The solver runs the non-convex antenna-position problem, whose Hessian
may be indefinite (hence the damping in newton_step), and the KKT residual
norm that the line search decreases can flatten out away from a KKT point;
a run whose accepted steps stop cutting that norm ends with status
no_progress. Each run assembles its Newton systems in one KKT workspace,
whose constant block is written once. The iteration is the primal-dual
method of Boyd & Vandenberghe, Convex Optimization, section 11.7, warm
started with a cold-start fallback as in Yildirim & Wright, "Warm-start
strategies in interior-point methods for linear programming", SIAM J. Optim.
12(3), 2002.
"""

from __future__ import annotations

import math

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
# No-progress exit: stop once _FLAT_STEPS accepted steps in a row have each
# cut the KKT residual norm by less than the fraction _FLAT_CUT.
_FLAT_STEPS = 10
_FLAT_CUT = 1e-6
# The first KKT solve is undamped; on failure rho*I is added to the Hessian,
# starting at _FIRST_DAMPING and growing tenfold per escalation.
_FIRST_DAMPING = 1e-6
_MAX_DAMPING_ESCALATIONS = 5


class SingularKktError(RuntimeError):
    """Raised when the KKT system stays unsolvable through damping escalation."""


def _gradient(objective, x: np.ndarray) -> np.ndarray:
    grad = objective.gradient(x)
    if not np.isfinite(grad).all():
        raise ValueError("objective gradient is not finite")
    return grad


def residuals(objective, positions: PositionSet, x: np.ndarray, f: np.ndarray,
              nu: np.ndarray, delta: float):
    """Dual residual grad g + Df^T nu and centrality residual -diag(nu) f - 1/delta,
    given f = f(x)."""
    if not (f < 0).all():
        raise InfeasibleStartError("residuals require a strictly feasible point")
    r_dual = _gradient(objective, x) + positions.matrix.T @ nu
    r_cent = -nu * f - 1.0 / delta
    return r_dual, r_cent


def _kkt_workspace(jac: np.ndarray) -> np.ndarray:
    """The KKT matrix [[H, Df^T], [-diag(nu) Df, -diag(f)]] of newton_step
    for constraint rows jac, with its constant parts written: Df^T, and the
    -0.0 that -diag(f) holds off its diagonal."""
    m_c, n = jac.shape
    kkt = np.empty((n + m_c, n + m_c))
    kkt[:n, n:] = jac.T
    kkt[n:, n:] = -0.0
    return kkt


def newton_step(objective, positions: PositionSet, x: np.ndarray, f: np.ndarray,
                nu: np.ndarray, r_dual: np.ndarray, r_cent: np.ndarray, kkt: np.ndarray):
    """Solve the primal-dual Newton system at (x, nu), given f = f(x) and the
    residuals there, for (dx, dnu).

    kkt is the run's workspace from _kkt_workspace(positions.matrix); a step
    writes only its H, -diag(nu) Df and diagonal blocks.
    The objective Hessian may be indefinite or singular here; on a failed or
    inaccurate factorization a Levenberg-style rho*I term is added, escalating
    rho tenfold up to 5 times before giving up.
    """
    jac = positions.matrix
    n = x.size
    hess = objective.hessian(x)
    hess_diag = hess.diagonal()
    kkt[:n, :n] = hess
    kkt[n:, :n] = -nu[:, None] * jac
    diag = kkt.reshape(-1)[::kkt.shape[0] + 1]
    diag[n:] = -f
    rhs = -np.concatenate([r_dual, r_cent])
    tol = 1e-10 * (1.0 + math.sqrt(rhs @ rhs))
    rho = 0.0
    for _ in range(_MAX_DAMPING_ESCALATIONS + 1):
        diag[:n] = hess_diag + rho
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = None
        if sol is not None and np.isfinite(sol).all():
            resid = kkt @ sol - rhs
            if math.sqrt(resid @ resid) <= tol:
                return sol[:n], sol[n:]
        rho = _FIRST_DAMPING if rho == 0.0 else 10.0 * rho
    raise SingularKktError("KKT system unsolvable after damping escalation")


def solve_pdip(objective, positions: PositionSet, x0: np.ndarray) -> SolveReport:
    """Run the interior-point iteration from a strictly feasible x0.

    The first multipliers are those of the central path through x0, nu0 =
    mu / (-f(x0)), with mu the least-squares fit of stationarity along that
    ray, clamped to [_EPS / m, 1], so a start near a KKT point, such as the
    last round's x, begins with a small gap. This warm attempt gets the cold
    schedule's own length, ceil(log_xi(m / _EPS)) Newton steps; if it does not
    converge, the call reruns the cold start mu = 1 from x0, which is also
    taken directly when the fit gives mu = 1 or Df^T (1/(-f)) = 0. A call that
    falls back reports both runs: its value_history is the warm attempt's
    values followed by the cold run's after x0.

    Every accepted iterate keeps f(x) < 0 and nu > 0; the line search first
    caps the step to preserve nu > 0, then backtracks into feasibility, then
    backtracks until the KKT residual norm has decreased. Success means the
    dual residual and the surrogate duality gap eta = -f(x)^T nu are below
    their tolerances; anything else is reported in the status field:
    max_iters, no_progress (_FLAT_STEPS accepted steps in a row each cut the
    residual norm by less than the fraction _FLAT_CUT), line_search_stall or
    singular_kkt. The gradient is taken once at x0, f once at each trial
    point, and the residuals once at each strictly feasible trial point; an
    accepted trial point's f and residuals are reused.
    """
    x = positions.check(x0)
    f = positions.values(x)
    if not (f < 0).all():
        raise InfeasibleStartError("x0 must satisfy f(x0) < 0 strictly")
    grad = _gradient(objective, x)
    history = [objective.value(x)]
    m_c = f.size
    d = positions.matrix.T @ (1.0 / -f)
    d_sq = float(d @ d)
    mu = 1.0 if d_sq == 0.0 else min(1.0, max(_EPS / m_c, -float(grad @ d) / d_sq))
    if mu < 1.0:
        budget = int(np.ceil(np.log(m_c / _EPS) / np.log(_XI)))
        warm = _newton_loop(objective, positions, x, f, grad, mu, budget, history)
        if warm.converged:
            return warm
    return _newton_loop(objective, positions, x, f, grad, 1.0, _MAX_ITERS, history)


def _newton_loop(objective, positions: PositionSet, x: np.ndarray,
                 f: np.ndarray, grad: np.ndarray, mu: float, budget: int,
                 history: list) -> SolveReport:
    """At most budget Newton steps from (x, mu / (-f)), given f = f(x) and
    grad = grad g(x); g at each accepted iterate is appended to history,
    which the returned report holds. The run ends no_progress at the last
    iterate once _FLAT_STEPS accepted steps in a row have each left the KKT
    residual norm above 1 - _FLAT_CUT times its value before the step; the
    stop reads that norm, not g, which may rise while an iterate centres."""
    nu = mu / -f
    m_c = f.size
    eta = float(-f @ nu)
    r_dual = grad + positions.matrix.T @ nu
    kkt = _kkt_workspace(positions.matrix)
    steps = 0
    flat = 0
    status = "max_iters"

    while True:
        if math.sqrt(r_dual @ r_dual) <= _EPS_FEAS and eta <= _EPS:
            status = "converged"
            break
        if flat >= _FLAT_STEPS:
            status = "no_progress"
            break
        if steps >= budget:
            break
        delta = _XI * m_c / eta
        r_cent = -nu * f - 1.0 / delta
        try:
            dx, dnu = newton_step(objective, positions, x, f, nu, r_dual, r_cent, kkt)
        except SingularKktError:
            status = "singular_kkt"
            break

        # stage 1: largest step keeping nu positive
        shrinking = dnu < 0
        gamma = 1.0
        if shrinking.any():
            gamma = min(1.0, 0.99 * (-nu[shrinking] / dnu[shrinking]).min())
        base_norm = math.sqrt((r_dual**2).sum() + (r_cent**2).sum())
        for _ in range(_MAX_BACKTRACKS):
            x_try = x + gamma * dx
            f_try = positions.values(x_try)
            if (f_try < 0).all():
                nu_try = nu + gamma * dnu
                r_dual_try, r_cent_try = residuals(objective, positions, x_try,
                                                   f_try, nu_try, delta)
                trial_norm = math.sqrt((r_dual_try**2).sum() + (r_cent_try**2).sum())
                if trial_norm <= (1.0 - _A_LS * gamma) * base_norm:
                    break
            gamma *= _B_LS
        else:
            status = "line_search_stall"
            break

        flat = flat + 1 if trial_norm > (1.0 - _FLAT_CUT) * base_norm else 0
        x, nu, f, r_dual = x_try, nu_try, f_try, r_dual_try
        eta = float(-f @ nu)
        history.append(objective.value(x))
        steps += 1

    return SolveReport(
        x=x,
        status=status,
        value_history=history,
        dual_residual=math.sqrt(r_dual @ r_dual),
        duality_gap=eta,
    )
