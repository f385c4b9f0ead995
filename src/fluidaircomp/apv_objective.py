"""Antenna-position objective: value, analytic derivatives, and the feasible set.

With w_k = alpha_k * conj(b_k) * m, the position-dependent part of the MSE
depends on x only through the steered weights and their sums

    v_kn = |w_kn| exp(j (phi_k x_n - ang_kn)),    u_k = sum_n v_kn = w_k^H a(x, theta_k),

where phi_k = 2*pi*cos(theta_k) and ang_kn = angle(w_kn). Then

    g(x)           = sum_k |u_k|^2 - 2 Re u_k,
    dg/dx_p        = -2 sum_k phi_k Im(v_kp (conj(u_k) - 1)),
    d2g/dx_p dx_q  = 2 sum_k phi_k^2 Re(v_kp conj(v_kq))             (p != q),
    d2g/dx_p^2     = 2 sum_k phi_k^2 (|v_kp|^2 - Re(v_kp (conj(u_k) - 1))),

so the off-diagonal Hessian is the matrix product 2 Re(V^T Phi^2 conj(V)).
The full residual sum relates to g through sum_k |w_k^H a - 1|^2 = g(x) + K.

Bounding every cosine's curvature by 1 gives the SCA majorant of g + K, a
convex quadratic x^T Q x - c^T x + d with an anchor-independent

    Q = diag(sum_k phi_k^2 (sum_n |w_kn| + 1) |w_k|) - |W|^T Phi^2 |W|.

It touches g + K at the anchor a and is smooth, so it is also tangent there:
c = 2 Q a - grad g(a) and d = g(a) + K - a^T Q a + c^T a.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import TWO_PI, InfeasibleStartError, Scenario


@dataclass(frozen=True)
class EffectiveWeights:
    """Polar form of the per-user weight vectors w_k, plus spatial frequencies.

    magnitudes[k, n] = |w_kn|, phases[k, n] = angle(w_kn), and
    spatial_freqs[k] = 2*pi*cos(theta_k) in wavelength-normalized units.
    """

    magnitudes: np.ndarray
    phases: np.ndarray
    spatial_freqs: np.ndarray

    @property
    def n_users(self) -> int:
        return self.magnitudes.shape[0]

    @property
    def n_antennas(self) -> int:
        return self.magnitudes.shape[1]

    def steered(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Steered weights v[..., k, n] and their sums u[..., k] = w_k^H a(x, theta_k)
        for positions x of shape (..., N)."""
        x = np.asarray(x, dtype=float)
        phase = self.spatial_freqs[:, None] * x[..., None, :] - self.phases
        v = self.magnitudes * np.exp(1j * phase)
        return v, v.sum(axis=-1)


def steered_value(u: np.ndarray) -> np.ndarray:
    """g from the inner products u[..., k]."""
    return np.sum(u.real**2 + u.imag**2 - 2.0 * u.real, axis=-1)


def steered_gradient(weights: EffectiveWeights, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """grad g from the steered weights (v, u) of one point."""
    return -2.0 * weights.spatial_freqs @ (v * (u.conj()[:, None] - 1.0)).imag


def effective_weights(b: np.ndarray, m: np.ndarray, scenario: Scenario) -> EffectiveWeights:
    """Build w_k = alpha_k * conj(b_k) * m for every user.

    Rebuild after every change of b or m; nothing here caches on mutation.
    """
    w = scenario.alphas[:, None] * np.conj(b)[:, None] * np.asarray(m)[None, :]
    return EffectiveWeights(
        magnitudes=np.abs(w),
        phases=np.angle(w),
        spatial_freqs=TWO_PI * np.cos(scenario.thetas),
    )


@dataclass(frozen=True)
class LinearConstraints:
    """Affine inequalities f_i(x) = matrix[i] @ x + offsets[i] <= 0."""

    matrix: np.ndarray
    offsets: np.ndarray

    @property
    def n_constraints(self) -> int:
        return self.offsets.shape[0]

    @property
    def jacobian(self) -> np.ndarray:
        return self.matrix

    def values(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=float) + self.offsets


def position_constraints(n_antennas: int, aperture: float, min_spacing: float) -> LinearConstraints:
    """The N+1 feasibility constraints: -x_1 <= 0, x_N - L <= 0, and the
    spacing rows x_{n-1} - x_n + L0 <= 0 for n = 2..N."""
    n = n_antennas
    mat = np.zeros((n + 1, n))
    off = np.zeros(n + 1)
    mat[0, 0] = -1.0
    mat[1, n - 1] = 1.0
    off[1] = -aperture
    for i in range(2, n + 1):
        mat[i, i - 2] = 1.0
        mat[i, i - 1] = -1.0
        off[i] = min_spacing
    return LinearConstraints(matrix=mat, offsets=off)


@dataclass(frozen=True)
class ApvObjective:
    """Immutable evaluation oracle for g(x) and its derivatives.

    Accepts arbitrary real position vectors, feasible or not; solvers need
    values outside the feasible set while backtracking.
    """

    weights: EffectiveWeights
    aperture: float
    min_spacing: float

    @cached_property
    def constraints(self) -> LinearConstraints:
        return position_constraints(self.weights.n_antennas, self.aperture, self.min_spacing)

    def feasible_start(self, x0: np.ndarray) -> np.ndarray:
        """x0 as a float copy, checked against the constraints up to the
        1e-12 * (1 + L) rounding that projected points may carry."""
        x = np.asarray(x0, dtype=float).copy()
        if np.max(self.constraints.values(x)) > 1e-12 * (1.0 + self.aperture):
            raise InfeasibleStartError("x0 violates the position constraints")
        return x

    def value(self, x: np.ndarray) -> float | np.ndarray:
        """g(x); a (P, N) stack of points gives the (P,) array of values."""
        _, u = self.weights.steered(x)
        g = steered_value(u)
        return float(g) if g.ndim == 0 else g

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Analytic gradient of g at one point."""
        v, u = self.weights.steered(x)
        return steered_gradient(self.weights, v, u)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Analytic Hessian of g at one point (symmetric N x N)."""
        v, u = self.weights.steered(x)
        phi2 = self.weights.spatial_freqs ** 2
        # 2 Re(V^T Phi^2 conj(V)) as two real products, which measured
        # faster than one complex product
        re, im = v.real, v.imag
        hess = 2.0 * ((phi2[:, None] * re).T @ re + (phi2[:, None] * im).T @ im)
        diag = 2.0 * phi2 @ (np.abs(v) ** 2 - (v * (u.conj()[:, None] - 1.0)).real)
        np.fill_diagonal(hess, diag)
        return hess
