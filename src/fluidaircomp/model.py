"""Core system model: scenarios, the steering kernel, LoS channels, the
aggregation residual, the exact MSE, and the report every position step returns.

The steering kernel is the library's one complex exponential, a pure
function of x. The MSE and the position objective g sum one residual kernel,
so g + sigma2 ||m||^2 is the MSE.

All positions and lengths are expressed in wavelength units, so the carrier
wavelength never appears as a separate parameter.
"""

from __future__ import annotations

import math
import numbers
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
        spatial_freqs: (K,) spatial frequencies 2*pi*cos(theta_k), set on construction.
    """

    n_antennas: int
    alphas: np.ndarray
    thetas: np.ndarray
    powers: np.ndarray
    sigma2: float
    aperture: float
    min_spacing: float
    positions: PositionSet = field(init=False, repr=False, compare=False)
    spatial_freqs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alphas", np.asarray(self.alphas, dtype=float))
        object.__setattr__(self, "thetas", np.asarray(self.thetas, dtype=float))
        object.__setattr__(self, "powers", np.asarray(self.powers, dtype=float))
        shape = self.alphas.shape
        if len(shape) != 1 or self.thetas.shape != shape or self.powers.shape != shape:
            raise ValueError("alphas, thetas, powers must be 1-D arrays of one length K")
        if shape[0] < 1:
            raise ValueError("need at least one user")
        finite = (self.alphas, self.powers, self.sigma2)
        if not all(np.all(np.isfinite(value)) for value in finite):
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
        object.__setattr__(self, "spatial_freqs", TWO_PI * np.cos(self.thetas))

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


@dataclass
class SolveReport:
    """Outcome of one position step (solve_pdip, solve_sca or solve_pgd).

    value_history[0] is g at the start and value_history[-1] g at x; each
    iteration appends one entry."""

    x: np.ndarray
    status: str
    value_history: list
    dual_residual: float = float("nan")
    duality_gap: float = float("nan")

    @property
    def iterations(self) -> int:
        return len(self.value_history) - 1

    @property
    def value(self) -> float:
        return self.value_history[-1]

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def steering(x: np.ndarray, spatial_freqs: np.ndarray) -> np.ndarray:
    """exp(j*x_n*phi_k) of shape (..., N, K) for positions x of shape (..., N)
    and spatial frequencies phi of shape (K,); the library's one complex
    exponential. Every entry has unit modulus; x is in wavelengths.

    The exponent is one product x_n * (0 + j*phi_k), with the factor built
    with a real part of +0.0: one complex pass over N x K before the exp,
    where np.exp(1j * (x_n * phi_k)) takes two (the real product, then 1j
    times it). Both exponents are (+-0, x_n*phi_k + 0.0), so the entries
    carry the same bits. 1j * phi would have a real part of -0.0 for
    phi_k < 0, and the imaginary part at x_n = 0 would then be -0.0."""
    x = np.asarray(x, dtype=float)
    j_phi = np.zeros(np.shape(spatial_freqs), dtype=complex)
    j_phi.imag = spatial_freqs
    return np.exp(x[..., :, None] * j_phi)


def channel_matrix(scenario: Scenario, x: np.ndarray) -> np.ndarray:
    """(N, K) matrix whose k-th column is the channel of user k."""
    x = np.asarray(x, dtype=float)
    if x.shape != (scenario.n_antennas,):
        raise ValueError("position vector has wrong length")
    return scenario.alphas * steering(x, scenario.spatial_freqs)


def residual(b: np.ndarray, m: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Residuals r_k = m^H h_k b_k - 1, shape (..., K), of h of shape (..., N, K)."""
    return (m.conj() @ h) * b - 1.0


def sum_squares(r: np.ndarray) -> np.ndarray:
    """sum_k |r_k|^2 over the last axis."""
    return (r.real**2 + r.imag**2).sum(axis=-1)


def mse(b: np.ndarray, m: np.ndarray, h: np.ndarray, sigma2: float) -> float:
    """Exact aggregation error sum_k |m^H h_k b_k - 1|^2 + sigma2 * ||m||^2
    over the (N, K) channel matrix h."""
    b = np.asarray(b)
    m = np.asarray(m)
    n, k = h.shape
    if b.shape != (k,):
        raise ValueError("b has wrong length")
    if m.shape != (n,):
        raise ValueError("m has wrong length")
    return float(sum_squares(residual(b, m, h)) + sigma2 * np.sum(np.abs(m) ** 2))


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


def check_integer(name: str, value) -> None:
    """Raise ValueError unless value is an integer, a Python or a NumPy one."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


_MARGIN_FRAC = 1e-3  # interior grid's end margin, as a fraction of L


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
        check_integer("n_antennas", self.n_antennas)
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

    @cached_property
    def slack(self) -> float:
        """The free length L - (N-1) L0, snapped to 0 within the tolerance."""
        slack = self.aperture - (self.n_antennas - 1) * self.min_spacing
        return 0.0 if abs(slack) <= self.tolerance else slack

    @cached_property
    def ramp(self) -> np.ndarray:
        """The read-only (N,) spacing ramp (n-1) L0. Subtracting it maps the
        spacing rows to monotonicity: x is feasible when x - ramp is
        nondecreasing within [0, slack]."""
        ramp = self.min_spacing * np.arange(self.n_antennas)
        ramp.flags.writeable = False
        return ramp

    @cached_property
    def matrix(self) -> np.ndarray:
        """(N+1, N) rows of the constraints f(x) = matrix @ x + offsets <= 0:
        -x_1 <= 0, x_N - L <= 0, and x_{n-1} - x_n + L0 <= 0 for n = 2..N."""
        n = self.n_antennas
        mat = np.zeros((n + 1, n))
        mat[0, 0] = -1.0
        mat[1, n - 1] = 1.0
        for i in range(2, n + 1):
            mat[i, i - 2] = 1.0
            mat[i, i - 1] = -1.0
        return mat

    @cached_property
    def offsets(self) -> np.ndarray:
        off = np.full(self.n_antennas + 1, float(self.min_spacing))
        off[0] = 0.0
        off[1] = -self.aperture
        return off

    def values(self, x: np.ndarray) -> np.ndarray:
        """The constraint values f(x); x is feasible where all are <= 0."""
        return self.matrix @ np.asarray(x, dtype=float) + self.offsets

    def check(self, x0: np.ndarray) -> np.ndarray:
        """x0 as a float copy; raises InfeasibleStartError unless it is finite
        and feasible up to the tolerance, which projected points may need."""
        x = np.asarray(x0, dtype=float).copy()
        if not (np.all(np.isfinite(x)) and np.all(self.values(x) <= self.tolerance)):
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
