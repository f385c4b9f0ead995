"""Output checks for the benchmark.

Every check compares against an independent computation or a property that
every method must have; none compares against a stored copy of earlier output.
A solve is kept as a plain JSON-able record so that pool workers can hand it to
the benchmark process through a file.
"""

from __future__ import annotations

import csv
import math

import numpy as np

MSE_REL_TOL = 1e-9
SLACK = 1e-9


def _pack(z) -> list:
    z = np.asarray(z, dtype=complex)
    return [z.real.tolist(), z.imag.tolist()]


def _unpack(pair) -> np.ndarray:
    return np.asarray(pair[0]) + 1j * np.asarray(pair[1])


def solve_record(scenario, method: str, seed, report=None, error: str = "") -> dict:
    """One solve as the benchmark sees it: the inputs, the outputs and the status."""
    record = {
        "method": method, "seed": seed, "n": scenario.n_antennas,
        "k": scenario.n_users, "sigma2": scenario.sigma2,
        "aperture": scenario.aperture, "min_spacing": scenario.min_spacing,
        "alphas": scenario.alphas.tolist(), "thetas": scenario.thetas.tolist(),
        "powers": scenario.powers.tolist(), "error": error,
    }
    if report is not None:
        state = report.state
        record.update(b=_pack(state.b), m=_pack(state.m), x=state.x.tolist(),
                      mse=state.mse, history=list(report.mse_history),
                      rounds=report.rounds, status=report.status)
    return record


def own_mse(record: dict) -> float:
    """sum_k |m^H h_k b_k - 1|^2 + sigma2 ||m||^2, user by user, with the
    steering vector a_n = cos(2 pi x_n cos theta) + j sin(2 pi x_n cos theta)."""
    b, m, x = _unpack(record["b"]), _unpack(record["m"]), np.asarray(record["x"])
    total = record["sigma2"] * float(np.sum(m.real**2 + m.imag**2))
    for alpha, theta, b_k in zip(record["alphas"], record["thetas"], b):
        phase = 2.0 * math.pi * math.cos(theta) * x
        h = alpha * (np.cos(phase) + 1j * np.sin(phase))
        total += abs(np.sum(np.conj(m) * h) * b_k - 1.0) ** 2
    return total


def check_solve(record: dict) -> list[str]:
    """Problems with one finished solve; an empty list means it passed."""
    problems = []
    mse = record["mse"]
    recomputed = own_mse(record)
    if abs(recomputed - mse) > MSE_REL_TOL * abs(recomputed):
        problems.append(f"reported MSE {mse!r} != recomputed {recomputed!r}")
    history = record["history"]
    if history[0] != record["k"]:
        problems.append(f"mse_history[0] = {history[0]!r}, expected K = {record['k']}")
    if history[-1] != mse:
        problems.append("mse_history[-1] differs from the final MSE")
    if any(later > earlier + SLACK * max(1.0, earlier)
           for earlier, later in zip(history, history[1:])):
        problems.append("mse_history increases")
    b = _unpack(record["b"])
    if np.any(np.abs(b) ** 2 > np.asarray(record["powers"]) * (1.0 + 1e-12)):
        problems.append("|b_k|^2 exceeds P_k")
    x = np.asarray(record["x"])
    aperture, spacing = record["aperture"], record["min_spacing"]
    gaps = np.diff(x)
    if x[0] < -SLACK or x[-1] > aperture + SLACK or np.any(gaps <= 0) \
            or np.any(gaps < spacing - SLACK):
        problems.append(f"positions infeasible: {x.tolist()}")
    if record["method"] == "fpa" and x.size > 1:
        grid = aperture * np.arange(x.size) / (x.size - 1)
        if np.max(np.abs(x - grid)) > 1e-12 * aperture:
            problems.append("fpa positions are not the uniform grid")
    return problems


def solve_failed(record: dict, problems: list[str]) -> bool:
    """A solve fails if it raised, its position solver failed, or a check failed."""
    return bool(record["error"] or problems
                or record["status"].startswith("position_solver_failed"))


def read_csv(path) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def check_aggregates(rows: list[dict]) -> list[str]:
    """The trial = -1 rows must be the means of the per-trial rows, to the
    precision the CSV prints (12 digits for mse, 6 for rounds, 1e-6 s)."""
    groups: dict[tuple, list[dict]] = {}
    aggregates = {}
    for row in rows:
        key = (row["value"], row["method"])
        if row["trial"] == "-1":
            aggregates[key] = row
        else:
            groups.setdefault(key, []).append(row)
    problems = []
    if set(aggregates) != set(groups) or len(groups) == 0:
        problems.append("aggregate rows do not match the per-trial groups")
    for key, group in groups.items():
        agg = aggregates.get(key)
        if agg is None:
            continue
        for column, rel, absolute in (("mse", 1e-10, 0.0), ("rounds", 1e-5, 0.0),
                                      ("seconds", 0.0, 2e-6)):
            mean = sum(float(r[column]) for r in group) / len(group)
            if abs(float(agg[column]) - mean) > rel * abs(mean) + absolute:
                problems.append(f"aggregate {column} of {key} is {agg[column]}, "
                                f"mean of trials is {mean!r}")
        if agg["seed"] != "-1":
            problems.append(f"aggregate row {key} has seed {agg['seed']}")
    return problems
