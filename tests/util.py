"""Shared builders for randomized test instances."""

from __future__ import annotations

import numpy as np

from fluidaircomp.apv_objective import ApvObjective, effective_weights
from fluidaircomp.closed_form import update_b, update_m
from fluidaircomp.model import Scenario, sample_scenario


def random_weights(rng, n_users, n_antennas, zero_frac=0.0) -> ApvObjective:
    mags = rng.uniform(0.05, 1.5, (n_users, n_antennas))
    if zero_frac:
        mags[rng.random((n_users, n_antennas)) < zero_frac] = 0.0
    phases = rng.uniform(-np.pi, np.pi, (n_users, n_antennas))
    freqs = 2.0 * np.pi * np.cos(rng.uniform(1e-3, np.pi - 1e-3, n_users))
    return ApvObjective(magnitudes=mags, phases=phases, spatial_freqs=freqs)


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
    b = np.sqrt(scenario.powers).astype(complex)
    for _ in range(rounds):
        m = update_m(b, scenario, x)
        b = update_b(m, scenario, x)
    return scenario.positions, effective_weights(b, m, scenario), x
