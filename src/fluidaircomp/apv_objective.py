"""Antenna-position objective: the MSE's residual sum over x and its derivatives.

With b and m held fixed, the MSE depends on x only through the (N, K)
channel matrix h(x) = alpha o exp(j phi x^T), phi_k = 2*pi*cos(theta_k), and
the residuals r_k = m^H h_k b_k - 1 of model.residual. The position objective
is the MSE's sum of their squares, and its derivatives are products with h:

    g(x)      = sum_k |r_k|^2 = MSE(b, m, x) - sigma2 ||m||^2,
    grad g    = -2 Im(conj(m) o (h (phi o b o conj(r)))) = -2 Im(T conj(r)),
    hess g    = 2 Re(T T^H) - 2 diag(Re(T (phi o conj(r)))),

with the (N, K) matrix T = diag(conj(m)) h diag(phi o b). Off the diagonal,
Re(T T^H) is Re(diag(conj(m)) S S^H diag(m)) with S = h diag(phi o |b|), and
its diagonal is ||phi o alpha o b||^2 |m|^2. g + sigma2 ||m||^2 is model.mse
at h(x) bit for bit.

The objective answers one point x (N,); a stack xs of points is scored by
sum_squares(residual(b, m, alphas * steering(xs, phi))), whose kernels take
h of shape (..., N, K). effective_weights builds the objective holding the
caller's h at its x, and channel(x) hands h(x) back: no second exponential.

Bounding every cosine's curvature by 1 gives the SCA majorant of g, a
convex quadratic x^T Q x + l^T x + d with, for a = alpha o |b|, the
anchor-independent

    Q = diag(|m| o sum_k phi_k^2 a_k (a_k ||m||_1 + 1)) - (sum_k phi_k^2 a_k^2) |m| |m|^T.

It touches g at the anchor x0 and is smooth, so it is also tangent there:
l = grad g(x0) - 2 Q x0 and d = g(x0) - x0^T Q x0 - l^T x0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Scenario, residual, steering, sum_squares


@dataclass(frozen=True, eq=False)
class ApvObjective:
    """Evaluation oracle for g(x) and its derivatives at fixed b (K,) and m (N,),
    over user k's gain alphas[k] and spatial frequency spatial_freqs[k].

    Takes one point x (N,) at a time, feasible or not, in wavelengths; solvers
    backtrack outside the feasible set, and another shape raises ValueError.
    value, gradient, hessian and channel share the (h, r) of the last point
    asked about, keyed on its bytes. Objectives compare and hash by identity.
    """

    b: np.ndarray
    m: np.ndarray
    alphas: np.ndarray
    spatial_freqs: np.ndarray
    _last: tuple = field(default=(None, None, None), init=False, repr=False)
    # conj(m) and phi o b, read by every gradient and Hessian
    _m_conj: np.ndarray = field(init=False, repr=False)
    _phi_b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_m_conj", self.m.conj())
        object.__setattr__(self, "_phi_b", self.spatial_freqs * self.b)

    def _point(self, x: np.ndarray, h: np.ndarray | None = None):
        """h (N, K) and r (K,) at x (N,); an h passed in is h(x). The memo is
        replaced as one tuple, so no reader sees a key with another's arrays."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.m.shape:
            raise ValueError(f"x must have shape {self.m.shape}, got {x.shape}")
        key = x.tobytes()
        last = self._last
        if last[0] != key:
            if h is None:
                h = steering(x, self.spatial_freqs)
                h *= self.alphas
            last = (key, h, residual(self.b, self.m, h))
            object.__setattr__(self, "_last", last)
        return last[1], last[2]

    def channel(self, x: np.ndarray) -> np.ndarray:
        """h(x), the (N, K) channel matrix at x; the last point's is reused."""
        return self._point(x)[0]

    def value(self, x: np.ndarray) -> float:
        """g(x)."""
        return float(sum_squares(self._point(x)[1]))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Analytic gradient of g."""
        h, r = self._point(x)
        return -2.0 * (self._m_conj * (h @ (self._phi_b * r.conj()))).imag

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Analytic Hessian of g (symmetric N x N)."""
        h, r = self._point(x)
        t = self._m_conj[:, None] * h * self._phi_b
        # Re(T T^H) is one real product of T's float view, whose rows
        # interleave Re and Im
        hess = t.view(float) @ t.view(float).T
        # the diagonal as a strided view of the fresh, contiguous product
        diagonal = hess.reshape(-1)[:: hess.shape[0] + 1]
        diagonal -= (t @ (self.spatial_freqs * r.conj())).real
        return 2.0 * hess


def effective_weights(b: np.ndarray, m: np.ndarray, scenario: Scenario,
                      x: np.ndarray, h: np.ndarray) -> ApvObjective:
    """g at this b and m over the scenario's gains and spatial frequencies,
    holding the channel matrix h = channel_matrix(scenario, x) as its point.

    The objective reads b, m and h as given and keys its memo on x alone, so
    rebuild it after every change of b or m.
    """
    objective = ApvObjective(np.asarray(b), np.asarray(m), scenario.alphas,
                             scenario.spatial_freqs)
    objective._point(x, h)
    return objective
