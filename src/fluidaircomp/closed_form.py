"""Closed-form coordinate updates for the transmit coefficients and the decoder."""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .model import Scenario, channel_matrix

# Below this magnitude of m^H h_k the b subproblem is degenerate (any feasible
# b_k is optimal); we return 0 deterministically.
ZERO_CHANNEL_TOL = 1e-12


def update_b(m: np.ndarray, scenario: Scenario, x: np.ndarray) -> np.ndarray:
    """Per-user b update; the users decouple, so each solves its own scalar QCQP.

    The multiplier max(|c|/sqrt(P) - |c|^2, 0) with c = m^H h_k either leaves
    the unconstrained inverse 1/c untouched or scales it back onto the power
    sphere.
    """
    h = channel_matrix(scenario, x)
    c = m.conj() @ h  # m^H h_k per user
    mag = np.abs(c)
    mu = np.maximum(mag / np.sqrt(scenario.powers) - mag**2, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.conj(c) / (mag**2 + mu)
    b[mag < ZERO_CHANNEL_TOL] = 0j
    return b


def update_m(b: np.ndarray, scenario: Scenario, x: np.ndarray) -> np.ndarray:
    """Least-squares decoder (sigma2*I + sum |b_k|^2 h_k h_k^H)^-1 sum b_k h_k.

    The system matrix is Hermitian positive definite for sigma2 > 0, so it is
    solved with a Cholesky-backed routine instead of an explicit inverse. When
    sigma2 is below the rounding of the Gram matrix, the system is
    numerically singular (sample_scenario(10, 2, 200.0, seed=0) under fpa
    reaches it): the Cholesky solve then fails or warns, and m is the
    least-squares solution of the stacked system [W^H; sigma I] m = [1; 0]
    with W's columns b_k h_k, whose normal equations these are.
    """
    if scenario.sigma2 <= 0:
        raise ValueError("decoder update requires positive noise power")
    h = channel_matrix(scenario, x)
    n = scenario.n_antennas
    weighted = h * b[None, :]  # columns b_k h_k
    a = scenario.sigma2 * np.eye(n, dtype=complex) + weighted @ weighted.conj().T
    rhs = weighted.sum(axis=1)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            return scipy.linalg.solve(a, rhs, assume_a="pos")
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgWarning):
        stacked = np.vstack([weighted.conj().T, np.sqrt(scenario.sigma2) * np.eye(n)])
        target = np.concatenate([np.ones(b.size), np.zeros(n)])
        return np.linalg.lstsq(stacked, target, rcond=None)[0]
