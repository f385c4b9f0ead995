"""Independent reference implementations used to validate the library.

Everything here is deliberately brute force (dense grids, exhaustive active-set
enumeration, finite differences) and shares no formula code with the modules it
checks beyond the core data types.
"""

from __future__ import annotations

import itertools

import numpy as np

from fluidaircomp.model import LinearConstraints


def fd_gradient(fun, x, h=1e-6):
    """Central-difference gradient, O(h^2) error."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fun(x + step) - fun(x - step)) / (2.0 * h)
    return grad


def fd_hessian(fun, x, h=1e-4):
    """Central-difference Hessian, O(h^2) error."""
    x = np.asarray(x, dtype=float)
    n = x.size
    hess = np.zeros((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        for j in range(i, n):
            ej = np.zeros(n)
            ej[j] = h
            hess[i, j] = (fun(x + ei + ej) - fun(x + ei - ej)
                          - fun(x - ei + ej) + fun(x - ei - ej)) / (4.0 * h * h)
            hess[j, i] = hess[i, j]
    return hess


def power_term(weights, k, x):
    """P_k(x) = |w_k^H a(x, theta_k)|^2 as the double cosine sum
    sum_{n,l} |w_kn||w_kl| cos(q_k(x_n, x_l)), q_k = s_kn - s_kl,
    s_kn = phi_k x_n - ang_kn."""
    x = np.asarray(x, dtype=float)
    w = weights.magnitudes[k]
    s = weights.spatial_freqs[k] * x - weights.phases[k]
    q = s[:, None] - s[None, :]
    return float(np.sum(np.outer(w, w) * np.cos(q)))


def cross_term(weights, k, x):
    """C_k(x) = 2 Re(w_k^H a(x, theta_k)) as the single cosine sum."""
    x = np.asarray(x, dtype=float)
    w = weights.magnitudes[k]
    s = weights.spatial_freqs[k] * x - weights.phases[k]
    return float(2.0 * np.sum(w * np.cos(s)))


def _phase_args(weights, x):
    return weights.spatial_freqs[:, None] * x[None, :] - weights.phases


def cosine_value(weights, x):
    """g(x) = sum_k P_k(x) - C_k(x) from the K x N x N cosine tensor."""
    x = np.asarray(x, dtype=float)
    w = weights.magnitudes
    s = _phase_args(weights, x)
    q = s[:, :, None] - s[:, None, :]
    pair = w[:, :, None] * w[:, None, :]
    return float(np.einsum("knl,knl->", pair, np.cos(q)) - 2.0 * np.sum(w * np.cos(s)))


def cosine_gradient(weights, x):
    """Entry p: sum_k -2 phi_k |w_kp| [sum_l |w_kl| sin(q_k(x_p, x_l)) - sin(s_kp)]."""
    x = np.asarray(x, dtype=float)
    w = weights.magnitudes
    phi = weights.spatial_freqs
    s = _phase_args(weights, x)
    q = s[:, :, None] - s[:, None, :]
    inner = np.einsum("kl,knl->kn", w, np.sin(q))
    return np.sum(-2.0 * phi[:, None] * w * (inner - np.sin(s)), axis=0)


def cosine_hessian(weights, x):
    """Hessian of g from the K x N x N cosine tensor."""
    x = np.asarray(x, dtype=float)
    w = weights.magnitudes
    phi2 = weights.spatial_freqs[:, None] ** 2
    s = _phase_args(weights, x)
    q = s[:, :, None] - s[:, None, :]
    cosq = w[:, :, None] * w[:, None, :] * np.cos(q)
    hess = np.sum(2.0 * phi2[:, :, None] * cosq, axis=0)
    # diagonal: the power term gives -2 phi^2 |w_p| sum_{l != p} |w_l| cos(q_pl),
    # the cross term +2 phi^2 |w_p| cos(s_p)
    rows = np.sum(cosq, axis=2) - w**2
    np.fill_diagonal(hess, np.sum(2.0 * phi2 * (w * np.cos(s) - rows), axis=0))
    return hess


def power_upper_bound(weights, k, anchor):
    """Quadratic majorant coefficients (A_k, v_k, c_k) of the power term P_k.

    P_k(x) <= x^T A_k x - v_k^T x + c_k for all x, with equality at the anchor.
    """
    anchor = np.asarray(anchor, dtype=float)
    w = weights.magnitudes[k]
    phi = weights.spatial_freqs[k]
    quad = phi**2 * (w.sum() * np.diag(w) - np.outer(w, w))
    s = phi * anchor - weights.phases[k]
    q = s[:, None] - s[None, :]
    diff = anchor[:, None] - anchor[None, :]
    pair = np.outer(w, w)
    slope = pair * (np.sin(q) * phi + phi**2 * diff)
    lin = np.sum(slope - slope.T, axis=1)
    const = float(np.sum(pair * (0.5 * phi**2 * diff**2 + np.cos(q)
                                 + np.sin(q) * phi * diff)))
    return quad, lin, const


def cross_lower_bound(weights, k, anchor):
    """Concave minorant coefficients (At_k, vt_k, ct_k) of the cross term C_k.

    C_k(x) >= -x^T At_k x + 2 vt_k^T x + 2 ct_k for all x, tight at the anchor.
    """
    anchor = np.asarray(anchor, dtype=float)
    w = weights.magnitudes[k]
    phi = weights.spatial_freqs[k]
    quad = phi**2 * np.diag(w)
    s = phi * anchor - weights.phases[k]
    lin = w * (phi**2 * anchor - np.sin(s) * phi)
    const = float(np.sum(w * (np.cos(s) + np.sin(s) * phi * anchor
                              - 0.5 * phi**2 * anchor**2)))
    return quad, lin, const


def summed_bounds(weights, anchor):
    """Majorant of sum_k |w_k^H a(x) - 1|^2 as sum_k (upper P_k - lower C_k + 1),
    returned as (quad, lin, const) of x^T quad x - lin^T x + const."""
    n = weights.n_antennas
    quad, lin, const = np.zeros((n, n)), np.zeros(n), 0.0
    for k in range(weights.n_users):
        a_k, v_k, c_k = power_upper_bound(weights, k, anchor)
        at_k, vt_k, ct_k = cross_lower_bound(weights, k, anchor)
        quad += a_k + at_k
        lin += v_k + 2.0 * vt_k
        const += c_k - 2.0 * ct_k + 1.0
    return quad, lin, const


def channel(scenario, k, x):
    """LoS channel of user k (0-based): alpha_k exp(j 2 pi cos(theta_k) x_n)."""
    if not 0 <= k < scenario.n_users:
        raise IndexError(f"user index {k} out of range for K={scenario.n_users}")
    x = np.asarray(x, dtype=float)
    return scenario.alphas[k] * np.exp(2j * np.pi * np.cos(scenario.thetas[k]) * x)


def is_feasible_positions(x, aperture, min_spacing, tol=1e-9):
    """True when x is inside [0, L], ordered, and respects the minimum spacing."""
    x = np.asarray(x, dtype=float)
    if x[0] < -tol or x[-1] > aperture + tol:
        return False
    if x.size > 1 and np.min(np.diff(x)) < min_spacing - tol:
        return False
    return not np.any(np.diff(x) <= 0)


def update_b_single(m, h_k, p_max):
    """Power-constrained minimizer of |m^H h_k b - 1|^2 over |b|^2 <= p_max.

    The multiplier max(|c|/sqrt(P) - |c|^2, 0) with c = m^H h_k either leaves
    the unconstrained inverse 1/c untouched or scales it back onto the power
    sphere; a vanishing c (below 1e-12) gives b = 0.
    """
    c = complex(np.vdot(m, h_k))
    mag = abs(c)
    if mag < 1e-12:
        return 0j
    mu = max(mag / np.sqrt(p_max) - mag * mag, 0.0)
    return np.conj(c) / (mag * mag + mu)


def brute_force_b(m, h_k, p_max, n_mag=400, n_phase=720):
    """Exhaustive polar-grid argmin of |m^H h_k b - 1|^2 over |b|^2 <= p_max."""
    c = complex(np.vdot(m, h_k))
    mags = np.linspace(0.0, np.sqrt(p_max), n_mag)
    phases = np.linspace(0.0, 2.0 * np.pi, n_phase, endpoint=False)
    candidates = np.outer(mags, np.exp(1j * phases)).ravel()
    objective = np.abs(c * candidates - 1.0) ** 2
    return complex(candidates[int(np.argmin(objective))])


def feasible_grid_axis(length, resolution):
    return np.arange(0.0, length + 0.5 * resolution, resolution)


def grid_search_apv(objective, aperture, min_spacing, resolution, chunk=262144):
    """Exhaustive feasible-grid minimizer of objective.value for N <= 3.

    Returns (x_best, g_best) at the given grid resolution.
    """
    n = objective.n_antennas
    if n > 3:
        raise ValueError("grid search only supports N <= 3")
    axis = feasible_grid_axis(aperture, resolution)
    best_val = np.inf
    best_x = None

    def consider(points):
        nonlocal best_val, best_x
        for start in range(0, points.shape[0], chunk):
            block = points[start:start + chunk]
            vals = objective.value(block)
            idx = int(np.argmin(vals))
            if vals[idx] < best_val:
                best_val = float(vals[idx])
                best_x = block[idx].copy()

    if n == 1:
        consider(axis[:, None])
    elif n == 2:
        for x1 in axis:
            x2 = axis[axis >= x1 + min_spacing - 1e-12]
            if x2.size:
                consider(np.column_stack([np.full(x2.size, x1), x2]))
    else:
        for x1 in axis:
            for x2 in axis[axis >= x1 + min_spacing - 1e-12]:
                x3 = axis[axis >= x2 + min_spacing - 1e-12]
                if x3.size:
                    consider(np.column_stack([np.full(x3.size, x1),
                                              np.full(x3.size, x2), x3]))
    if best_x is None:
        raise ValueError("empty feasible grid")
    return best_x, best_val


def refine_grid_minimum(objective, aperture, min_spacing, x_start, radius,
                        resolution):
    """Dense local grid around x_start, filtered to the feasible set."""
    x_start = np.asarray(x_start, dtype=float)
    n = x_start.size
    offsets = np.arange(-radius, radius + 0.5 * resolution, resolution)
    grids = np.meshgrid(*[x_start[i] + offsets for i in range(n)], indexing="ij")
    points = np.column_stack([g.ravel() for g in grids])
    keep = (points[:, 0] >= 0) & (points[:, -1] <= aperture)
    if n > 1:
        keep &= np.all(np.diff(points, axis=1) >= min_spacing, axis=1)
    points = points[keep]
    vals = objective.value(points)
    idx = int(np.argmin(vals))
    return points[idx], float(vals[idx])


def grid_search_refined(objective, aperture, min_spacing, resolution,
                        refine_steps=2):
    """Coarse exhaustive grid followed by local refinements (10x finer each)."""
    x_best, g_best = grid_search_apv(objective, aperture, min_spacing, resolution)
    res = resolution
    for _ in range(refine_steps):
        x_new, g_new = refine_grid_minimum(objective, aperture, min_spacing,
                                           x_best, radius=2.0 * res, resolution=res / 10.0)
        if g_new < g_best:
            x_best, g_best = x_new, g_new
        res /= 10.0
    return x_best, g_best


def count_feasible_grid(aperture, min_spacing, resolution, n):
    """Number of points grid_search_apv would visit."""
    axis = feasible_grid_axis(aperture, resolution)
    if n == 1:
        return axis.size
    if n == 2:
        return int(sum((axis >= x1 + min_spacing - 1e-12).sum() for x1 in axis))
    total = 0
    for x1 in axis:
        for x2 in axis[axis >= x1 + min_spacing - 1e-12]:
            total += int((axis >= x2 + min_spacing - 1e-12).sum())
    return total


def qp_active_set_reference(quad, lin, constraints: LinearConstraints,
                            feas_tol=1e-9, dual_tol=1e-9):
    """Exact minimizer of x^T Q x + c^T x over A x + d <= 0 for PSD Q.

    Enumerates every candidate active set, solves the equality-constrained KKT
    system, and keeps the best primal/dual feasible KKT point. Only sensible
    for a handful of constraints.
    """
    quad = np.asarray(quad, dtype=float)
    lin = np.asarray(lin, dtype=float)
    mat, off = constraints.matrix, constraints.offsets
    m_c, n = mat.shape
    if m_c > 12:
        raise ValueError("too many constraints to enumerate")
    best_val = np.inf
    best_x = None
    for r in range(m_c + 1):
        for subset in itertools.combinations(range(m_c), r):
            active = list(subset)
            a_s = mat[active]
            kkt = np.block([
                [2.0 * quad, a_s.T],
                [a_s, np.zeros((r, r))],
            ]) if r else 2.0 * quad
            rhs = np.concatenate([-lin, -off[active]]) if r else -lin
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            if np.linalg.norm(kkt @ sol - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
                continue
            x = sol[:n]
            lam = sol[n:]
            if np.any(mat @ x + off > feas_tol):
                continue
            if r and np.any(lam < -dual_tol):
                continue
            val = float(x @ quad @ x + lin @ x)
            if val < best_val - 1e-15:
                best_val = val
                best_x = x
    if best_x is None:
        raise ValueError("no KKT point found; is Q PSD and the problem feasible?")
    return best_x


def project_reference(v, constraints: LinearConstraints):
    """Euclidean projection via the active-set QP oracle."""
    v = np.asarray(v, dtype=float)
    return qp_active_set_reference(np.eye(v.size), -2.0 * v, constraints)


def project_feasible_numpy(v, aperture, min_spacing):
    """The projection as first written with NumPy element access: PAVA over
    the ramp-shifted vector, then clipping. Kept to pin the library's
    Python-float version to the same additions in the same order."""
    v = np.asarray(v, dtype=float)
    n = v.size
    upper = aperture - (n - 1) * min_spacing
    ramp = min_spacing * np.arange(n)
    y = v - ramp
    if y[0] >= 0.0 and y[-1] <= upper and np.all(np.diff(y) >= 0.0):
        return v.copy()
    sums, counts = [], []
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
    return np.clip(out, 0.0, upper) + ramp
