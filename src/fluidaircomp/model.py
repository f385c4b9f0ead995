"""Core system model: scenarios, steering vectors, LoS channels, and the exact MSE.

All positions and lengths are expressed in wavelength units, so the carrier
wavelength never appears as a separate parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """

    n_antennas: int
    alphas: np.ndarray
    thetas: np.ndarray
    powers: np.ndarray
    sigma2: float
    aperture: float
    min_spacing: float

    def __post_init__(self):
        object.__setattr__(self, "alphas", np.asarray(self.alphas, dtype=float))
        object.__setattr__(self, "thetas", np.asarray(self.thetas, dtype=float))
        object.__setattr__(self, "powers", np.asarray(self.powers, dtype=float))
        if self.n_antennas < 1:
            raise ValueError("need at least one antenna")
        k = self.alphas.shape[0]
        if self.thetas.shape != (k,) or self.powers.shape != (k,):
            raise ValueError("alphas, thetas, powers must share one length K")
        if k < 1:
            raise ValueError("need at least one user")
        numbers = (self.alphas, self.powers, self.sigma2, self.aperture, self.min_spacing)
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
        if self.min_spacing < 0:
            raise ValueError("min_spacing must be nonnegative")
        if self.aperture < (self.n_antennas - 1) * self.min_spacing:
            raise ValueError("aperture too short for the spacing constraints")

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


def channel(scenario: Scenario, k: int, x: np.ndarray) -> np.ndarray:
    """LoS channel of user k (0-based): gain times steering vector."""
    if not 0 <= k < scenario.n_users:
        raise IndexError(f"user index {k} out of range for K={scenario.n_users}")
    return scenario.alphas[k] * steering_vector(x, scenario.thetas[k])


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
    sigma2 = p0 / 10.0 ** (snr_db / 10.0)
    return Scenario(
        n_antennas=n_antennas,
        alphas=alphas,
        thetas=thetas,
        powers=np.full(n_users, float(p0)),
        sigma2=float(sigma2),
        aperture=float(n_antennas),
        min_spacing=0.5,
    )


def is_feasible_positions(x: np.ndarray, aperture: float, min_spacing: float,
                          tol: float = 1e-9) -> bool:
    """True when x is inside [0, L], ordered, and respects the minimum spacing."""
    x = np.asarray(x, dtype=float)
    if x[0] < -tol or x[-1] > aperture + tol:
        return False
    if x.size > 1 and np.min(np.diff(x)) < min_spacing - tol:
        return False
    if np.any(np.diff(x) <= 0):
        return False
    return True


def uniform_positions(n_antennas: int, aperture: float) -> np.ndarray:
    """Evenly spread positions spanning [0, L]; [0] for a single antenna."""
    return np.linspace(0.0, aperture, n_antennas)


def interior_positions(n_antennas: int, aperture: float, min_spacing: float,
                       margin_frac: float = 1e-3) -> np.ndarray:
    """Evenly spread positions strictly inside every constraint.

    Shrinks the uniform grid away from both segment ends by a margin small
    enough that the spacing constraints stay strictly slack too; raises when
    the feasible set has an empty interior (L == (N-1)*L0).
    """
    if n_antennas == 1:
        return np.array([aperture / 2.0])
    slack = aperture - (n_antennas - 1) * min_spacing
    if slack <= 0:
        raise InfeasibleStartError("feasible set has empty interior: L == (N-1)*L0")
    margin = min(margin_frac * aperture, slack / 4.0)
    return np.linspace(margin, aperture - margin, n_antennas)


def nudge_interior(x: np.ndarray, aperture: float, min_spacing: float,
                   blend: float = 1e-3) -> np.ndarray:
    """Blend x toward the interior grid so every constraint is strictly slack.

    For feasible x the constraints are affine, so any positive blend weight
    toward a strictly interior point yields a strictly interior point.
    """
    x = np.asarray(x, dtype=float)
    anchor = interior_positions(x.size, aperture, min_spacing)
    return (1.0 - blend) * x + blend * anchor
