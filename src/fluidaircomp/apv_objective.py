"""Antenna-position objective: the residual sum and its analytic derivatives.

With b and m held fixed, the MSE depends on x only through the steered
weights and their sums

    v_kn = c_kn exp(j phi_k x_n),    u_k = sum_n v_kn = m^H h_k(x) b_k,

where c_kn = alpha_k b_k conj(m_n) and phi_k = 2*pi*cos(theta_k). The
position objective is the residual sum

    g(x)           = sum_k |u_k - 1|^2 = MSE(b, m, x) - sigma2 ||m||^2,
    dg/dx_p        = -2 sum_k phi_k Im(v_kp (conj(u_k) - 1)),
    d2g/dx_p dx_q  = 2 sum_k phi_k^2 Re(v_kp conj(v_kq))             (p != q),
    d2g/dx_p^2     = 2 sum_k phi_k^2 (|v_kp|^2 - Re(v_kp (conj(u_k) - 1))),

so the off-diagonal Hessian is the matrix product 2 Re(V^T Phi^2 conj(V)).
g is summed from the residuals themselves, so it carries the rounding of
the MSE and not that of a difference of O(K) terms.

Bounding every cosine's curvature by 1 gives the SCA majorant of g, a
convex quadratic x^T Q x + l^T x + d with an anchor-independent

    Q = diag(sum_k phi_k^2 (sum_n |c_kn| + 1) |c_k|) - |C|^T Phi^2 |C|.

It touches g at the anchor a and is smooth, so it is also tangent there:
l = grad g(a) - 2 Q a and d = g(a) - a^T Q a - l^T a.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Scenario, steering


@dataclass(frozen=True, eq=False)
class ApvObjective:
    """Evaluation oracle for g(x) and its derivatives, over fixed coefficients.

    coefficients[k, n] = c_kn and spatial_freqs[k] = phi_k in
    wavelength-normalized units. Accepts arbitrary real position vectors,
    feasible or not; solvers need values outside the feasible set while
    backtracking. value, gradient and hessian share one steering evaluation
    per point: the (v, u) of the last point asked about are kept, keyed on its
    shape and bytes, and so is w = v (conj(u) - 1) once the gradient or the
    Hessian has formed it, so a solver that asks for the value, gradient and
    Hessian at one x forms each once. Objectives compare and hash by identity.
    """

    coefficients: np.ndarray
    spatial_freqs: np.ndarray
    _last: dict = field(default_factory=dict, init=False, repr=False)

    def steered(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Steered weights v[..., k, n] and their sums u[..., k] = m^H h_k(x) b_k
        for positions x of shape (..., N)."""
        v = self.coefficients * np.swapaxes(steering(x, self.spatial_freqs), -1, -2)
        return v, v.sum(axis=-1)

    def _point(self, x: np.ndarray) -> dict:
        """The last point's v and u (and w, once formed), reused while x keeps
        the last point's shape and bytes. The arrays never leave the class,
        whose methods only read them."""
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        last = self._last
        if last.get("key") != key:
            last.clear()
            last["v"], last["u"] = self.steered(x)
            last["key"] = key
        return last

    def _tilted(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """v and w = v (conj(u) - 1) at one point; w is formed once per point."""
        last = self._point(x)
        if "w" not in last:
            last["w"] = last["v"] * (last["u"].conj()[:, None] - 1.0)
        return last["v"], last["w"]

    def value(self, x: np.ndarray) -> float | np.ndarray:
        """g(x); a (P, N) stack of points gives the (P,) array of values."""
        r = self._point(x)["u"] - 1.0
        g = (r.real**2 + r.imag**2).sum(axis=-1)
        return float(g) if g.ndim == 0 else g

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Analytic gradient of g at one point."""
        _, w = self._tilted(x)
        return -2.0 * self.spatial_freqs @ w.imag

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Analytic Hessian of g at one point (symmetric N x N)."""
        v, w = self._tilted(x)
        phi2 = self.spatial_freqs ** 2
        # 2 Re(V^T Phi^2 conj(V)) as two real products, which measured
        # faster than one complex product
        re, im = v.real, v.imag
        hess = 2.0 * ((phi2[:, None] * re).T @ re + (phi2[:, None] * im).T @ im)
        diag = 2.0 * phi2 @ (np.abs(v) ** 2 - w.real)
        np.fill_diagonal(hess, diag)
        return hess


def effective_weights(b: np.ndarray, m: np.ndarray, scenario: Scenario) -> ApvObjective:
    """g over c_kn = alpha_k * b_k * conj(m_n) for every user.

    Rebuild after every change of b or m; nothing here caches on mutation.
    """
    c = scenario.alphas[:, None] * np.asarray(b)[:, None] * np.conj(m)[None, :]
    return ApvObjective(coefficients=c, spatial_freqs=scenario.spatial_freqs)
