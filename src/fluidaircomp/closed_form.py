"""Closed-form coordinate updates for the transmit coefficients and the decoder.

Both take the (N, K) channel matrix h, whose k-th column is user k's channel
at the current positions. Neither holds an absolute threshold: scaling every
P_k and sigma2 by 4^j scales b by 2^j and m by 2^-j, exactly short of overflow.
"""

from __future__ import annotations

import numpy as np


def update_b(m: np.ndarray, h: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Per-user b update; the users decouple, so each solves its own scalar QCQP.

    The multiplier max(|c|/sqrt(P) - |c|^2, 0) with c = m^H h_k either leaves
    the unconstrained inverse 1/c untouched or scales it back onto the power
    sphere, and b_k = 0 where c = 0 exactly (every feasible b_k is optimal).
    """
    c = m.conj() @ h  # m^H h_k per user
    mag = np.abs(c)
    mu = np.maximum(mag / np.sqrt(powers) - mag**2, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.conj(c) / (mag**2 + mu)
    b[mag == 0.0] = 0j
    return b


def update_m(b: np.ndarray, h: np.ndarray, sigma2: float) -> np.ndarray:
    """Least-squares decoder (sigma2*I + W W^H)^-1 W 1, W's columns b_k h_k.

    The normal-equation matrix has condition number kappa <= 1 + ||W||_F^2 /
    sigma2, and solving it directly leaves an MSE excess of about (eps*kappa)^2
    relative. While sigma2 > sqrt(eps) ||W||_F^2 that excess is below eps, so
    the system is solved directly (as on every sweep cell at -10 to 10 dB).
    Otherwise m is the least-squares solution of the stacked system
    [W^H; sigma I] m = [1; 0], whose normal equations these are and which
    keeps the digits the MSE needs (sample_scenario(10, 2, 130.0, seed=0)
    takes this branch).
    """
    if sigma2 <= 0:
        raise ValueError("decoder update requires positive noise power")
    n = h.shape[0]
    weighted = h * b[None, :]  # columns b_k h_k
    gram = weighted @ weighted.conj().T
    if sigma2 > np.sqrt(np.finfo(float).eps) * gram.trace().real:
        return np.linalg.solve(gram + sigma2 * np.eye(n), weighted.sum(axis=1))
    stacked = np.vstack([weighted.conj().T, np.sqrt(sigma2) * np.eye(n)])
    target = np.concatenate([np.ones(b.size), np.zeros(n)])
    return np.linalg.lstsq(stacked, target, rcond=None)[0]
