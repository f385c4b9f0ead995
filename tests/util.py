"""Shared builders for randomized test instances."""

from __future__ import annotations

import numpy as np

from fluidaircomp.apv_objective import ApvObjective, effective_weights
from fluidaircomp.closed_form import update_b, update_m
from fluidaircomp.model import Scenario, channel_matrix, sample_scenario


def _random_phasors(rng, size):
    return rng.uniform(0.2, 1.1, size) * np.exp(1j * rng.uniform(-np.pi, np.pi, size))


def random_weights(rng, n_users, n_antennas, zero_frac=0.0) -> ApvObjective:
    """An objective over random b, m, gains and spatial frequencies, whose
    coefficients alpha_k |b_k| |m_n| lie in [0.02, 1.52]; with zero_frac, about
    that share of the entries of b and of m is zero."""
    b, m = _random_phasors(rng, n_users), _random_phasors(rng, n_antennas)
    if zero_frac:
        b[rng.random(n_users) < zero_frac] = 0.0
        m[rng.random(n_antennas) < zero_frac] = 0.0
    alphas = rng.uniform(0.5, 1.25, n_users)
    freqs = 2.0 * np.pi * np.cos(rng.uniform(1e-3, np.pi - 1e-3, n_users))
    return ApvObjective(b, m, alphas, freqs)


def flat_objective(n_users, n_antennas) -> ApvObjective:
    """b = 0, so g = K at every x."""
    return ApvObjective(np.zeros(n_users, dtype=complex), np.ones(n_antennas, dtype=complex),
                        np.ones(n_users), np.ones(n_users))


def one_weight(c, phi) -> ApvObjective:
    """N = K = 1 with the one coefficient c = alpha b conj(m): g(x) = |c e^{j phi x} - 1|^2."""
    return ApvObjective(np.array([complex(c)]), np.ones(1, dtype=complex), np.ones(1),
                        np.array([float(phi)]))


def random_feasible_positions(rng, n_antennas, aperture, min_spacing) -> np.ndarray:
    """Uniformly random feasible chain via the monotone reparametrization."""
    upper = aperture - (n_antennas - 1) * min_spacing
    z = np.sort(rng.uniform(0.0, upper, n_antennas))
    return z + min_spacing * np.arange(n_antennas)


def random_state(rng, scenario: Scenario):
    """Random b on the power sphere and an O(1/sqrt(N)) random decoder."""
    k, n = scenario.n_users, scenario.n_antennas
    b = rng.normal(size=k) + 1j * rng.normal(size=k)
    b *= np.sqrt(scenario.powers) / np.maximum(np.abs(b), 1e-12)
    m = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(n)
    return b, m


def warmed_objective(seed, n_antennas, n_users, snr_db=-5.0, rounds=2):
    """(positions, objective, x): a scenario's PositionSet, and its
    ApvObjective after a couple of m/b updates from the uniform grid x, i.e.
    with the weight magnitudes an AO run would actually see."""
    scenario = sample_scenario(n_antennas, n_users, snr_db, seed=seed)
    x = np.linspace(0.0, scenario.aperture, n_antennas)
    h = channel_matrix(scenario, x)
    b = np.sqrt(scenario.powers).astype(complex)
    for _ in range(rounds):
        m = update_m(b, h, scenario.sigma2)
        b = update_b(m, h, scenario.powers)
    return scenario.positions, effective_weights(b, m, scenario, x, h), x
