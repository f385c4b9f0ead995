"""Core system model: scenarios, steering vectors, LoS channels, and the exact MSE.

All positions and lengths are expressed in wavelength units, so the carrier
wavelength never appears as a separate parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi


class InfeasibleStartError(ValueError):
    """Raised when a position solver's start is infeasible, or when it needs a
    strictly feasible start and the feasible set has an empty interior."""


@dataclass(frozen=True)
class Scenario:
    """One AirComp problem instance.

    Attributes:
        n_antennas: number of movable receive antennas N.
        alphas: (K,) LoS propagation gains, all > 0.
        thetas: (K,) angles of arrival in radians, inside (0, pi).
        powers: (K,) per-user transmit power budgets, all > 0.
        sigma2: receiver noise power, > 0.
        aperture: length L of the segment the antennas live on.
        min_spacing: minimum distance L0 between adjacent antennas.
        positions: the PositionSet of (N, L, L0), built and checked on construction.
    """

    n_antennas: int
    alphas: np.ndarray
    thetas: np.ndarray
    powers: np.ndarray
    sigma2: float
    aperture: float
    min_spacing: float
    positions: PositionSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alphas", np.asarray(self.alphas, dtype=float))
        object.__setattr__(self, "thetas", np.asarray(self.thetas, dtype=float))
        object.__setattr__(self, "powers", np.asarray(self.powers, dtype=float))
        k = self.alphas.shape[0]
        if self.thetas.shape != (k,) or self.powers.shape != (k,):
            raise ValueError("alphas, thetas, powers must share one length K")
        if k < 1:
            raise ValueError("need at least one user")
        numbers = (self.alphas, self.powers, self.sigma2)
        if not all(np.all(np.isfinite(value)) for value in numbers):
            raise ValueError("scenario parameters must be finite")
        if not np.all(self.alphas > 0):
            raise ValueError("propagation gains must be positive")
        if not np.all((self.thetas > 0) & (self.thetas < np.pi)):
            raise ValueError("angles of arrival must lie in (0, pi)")
        if not np.all(self.powers > 0):
            raise ValueError("power budgets must be positive")
        if self.sigma2 <= 0:
            raise ValueError("noise power must be positive")
        object.__setattr__(self, "positions",
                           PositionSet(self.n_antennas, self.aperture, self.min_spacing))

    @property
    def n_users(self) -> int:
        return self.alphas.shape[0]


@dataclass(frozen=True)
class TransceiverState:
    """Current transmit coefficients b, decoding vector m, positions x, and MSE."""

    b: np.ndarray
    m: np.ndarray
    x: np.ndarray
    mse: float


def steering_vector(x: np.ndarray, theta: float) -> np.ndarray:
    """Receive phase response exp(j*2*pi*x_n*cos(theta)) for positions x.

    Every entry has unit modulus; x is in wavelengths.
    """
    x = np.asarray(x, dtype=float)
    return np.exp(1j * TWO_PI * np.cos(theta) * x)


def channel_matrix(scenario: Scenario, x: np.ndarray) -> np.ndarray:
    """(N, K) matrix whose k-th column is the channel of user k."""
    x = np.asarray(x, dtype=float)
    if x.shape != (scenario.n_antennas,):
        raise ValueError("position vector has wrong length")
    # exp(j*phi_k*x_n) columnwise, scaled by the gains
    phases = np.outer(x, TWO_PI * np.cos(scenario.thetas))
    return scenario.alphas[None, :] * np.exp(1j * phases)


def mse(b: np.ndarray, m: np.ndarray, scenario: Scenario, x: np.ndarray) -> float:
    """Exact aggregation error: sum_k |m^H h_k b_k - 1|^2 + sigma2 * ||m||^2."""
    b = np.asarray(b)
    m = np.asarray(m)
    if b.shape != (scenario.n_users,):
        raise ValueError("b has wrong length")
    if m.shape != (scenario.n_antennas,):
        raise ValueError("m has wrong length")
    h = channel_matrix(scenario, x)
    residual = (m.conj() @ h) * b - 1.0
    return float(np.sum(np.abs(residual) ** 2) + scenario.sigma2 * np.sum(np.abs(m) ** 2))


def noise_power(p0: float, snr_db: float) -> float:
    """Receiver noise power p0 / SNR with SNR = 10^(snr_db/10).

    Raises ValueError unless the result is finite and positive, which also
    rejects a nonpositive or non-finite p0 and a non-finite snr_db.
    """
    try:
        sigma2 = float(p0 / 10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        sigma2 = math.nan
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise ValueError("noise power p0 / 10^(snr_db/10) must be finite and positive, "
                         f"got p0 = {p0!r}, snr_db = {snr_db!r}")
    return sigma2


def sample_scenario(
    n_antennas: int,
    n_users: int,
    snr_db: float,
    seed: int,
    p0: float = 1.0,
    alpha_range: tuple[float, float] = (0.5, 1.5),
) -> Scenario:
    """Draw a random scenario, deterministic in the seed.

    Angles are uniform on (0, pi), clamped away from the endpoints so the
    effective spatial frequencies 2*pi*cos(theta) never coincide at +-2*pi;
    gains are uniform on alpha_range. All users share the budget p0, the noise
    power is p0 / SNR with SNR = 10^(snr_db/10), and the geometry defaults are
    aperture = N wavelengths with half-wavelength minimum spacing.
    """
    rng = np.random.default_rng(seed)
    thetas = np.clip(rng.uniform(0.0, np.pi, n_users), 1e-3, np.pi - 1e-3)
    alphas = rng.uniform(alpha_range[0], alpha_range[1], n_users)
    return Scenario(
        n_antennas=n_antennas,
        alphas=alphas,
        thetas=thetas,
        powers=np.full(n_users, float(p0)),
        sigma2=noise_power(p0, snr_db),
        aperture=float(n_antennas),
        min_spacing=0.5,
    )


_MARGIN_FRAC = 1e-3  # interior grid's end margin, as a fraction of L
_BLEND = 1e-3  # weight nudge puts on the interior grid


@dataclass(frozen=True)
class LinearConstraints:
    """Affine inequalities f_i(x) = matrix[i] @ x + offsets[i] <= 0."""

    matrix: np.ndarray
    offsets: np.ndarray

    @property
    def n_constraints(self) -> int:
        return self.offsets.shape[0]

    def values(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=float) + self.offsets


@dataclass(frozen=True)
class PositionSet:
    """The feasible antenna positions: 0 <= x_1, x_N <= L and x_n - x_{n-1} >= L0.

    The one place that decides feasibility. Lengths computed from decimal
    inputs carry rounding, so every test here allows tolerance = 1e-12 (1 + L):
    a geometry is tight (one feasible point) when the free length
    L - (N-1) L0 is within it of 0, and a point is feasible when no
    constraint exceeds it.
    """

    n_antennas: int
    aperture: float
    min_spacing: float

    def __post_init__(self):
        if self.n_antennas < 1:
            raise ValueError("need at least one antenna")
        if not (math.isfinite(self.aperture) and math.isfinite(self.min_spacing)):
            raise ValueError("aperture and min_spacing must be finite")
        if self.min_spacing < 0:
            raise ValueError("min_spacing must be nonnegative")
        if self.slack < 0:
            raise ValueError("aperture too short for the spacing constraints")

    @property
    def tolerance(self) -> float:
        return 1e-12 * (1.0 + self.aperture)

    @property
    def slack(self) -> float:
        """The free length L - (N-1) L0, snapped to 0 within the tolerance."""
        slack = self.aperture - (self.n_antennas - 1) * self.min_spacing
        return 0.0 if abs(slack) <= self.tolerance else slack

    @cached_property
    def constraints(self) -> LinearConstraints:
        """The N+1 rows: -x_1 <= 0, x_N - L <= 0, and the spacing rows
        x_{n-1} - x_n + L0 <= 0 for n = 2..N."""
        n = self.n_antennas
        mat = np.zeros((n + 1, n))
        off = np.zeros(n + 1)
        mat[0, 0] = -1.0
        mat[1, n - 1] = 1.0
        off[1] = -self.aperture
        for i in range(2, n + 1):
            mat[i, i - 2] = 1.0
            mat[i, i - 1] = -1.0
            off[i] = self.min_spacing
        return LinearConstraints(matrix=mat, offsets=off)

    def check(self, x0: np.ndarray) -> np.ndarray:
        """x0 as a float copy; raises InfeasibleStartError unless it is
        feasible up to the tolerance, which projected points may need."""
        x = np.asarray(x0, dtype=float).copy()
        if np.max(self.constraints.values(x)) > self.tolerance:
            raise InfeasibleStartError("x0 violates the position constraints")
        return x

    def uniform(self) -> np.ndarray:
        """Evenly spread positions spanning [0, L]; [0] for a single antenna."""
        return np.linspace(0.0, self.aperture, self.n_antennas)

    def interior(self) -> np.ndarray:
        """Evenly spread positions strictly inside every constraint.

        Shrinks the uniform grid away from both segment ends by a margin small
        enough that the spacing constraints stay strictly slack too; a single
        antenna sits at L/2. Raises InfeasibleStartError on tight geometry,
        whose feasible set has an empty interior (including L = 0 for N = 1).
        """
        if self.slack == 0:
            raise InfeasibleStartError("feasible set has empty interior: L = (N-1)*L0")
        if self.n_antennas == 1:
            return np.array([self.aperture / 2.0])
        margin = min(_MARGIN_FRAC * self.aperture, self.slack / 4.0)
        return np.linspace(margin, self.aperture - margin, self.n_antennas)

    def nudge(self, x: np.ndarray) -> np.ndarray:
        """Blend x toward the interior grid so every constraint is strictly slack.

        For feasible x the constraints are affine, so any positive blend weight
        toward a strictly interior point yields a strictly interior point.
        """
        x = np.asarray(x, dtype=float)
        return (1.0 - _BLEND) * x + _BLEND * self.interior()
