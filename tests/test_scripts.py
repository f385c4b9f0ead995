"""Smoke runs of the scripts in scripts/, the library's external callers."""

import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from fluidaircomp.experiments import CSV_HEADER, parse_config

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_compare_solvers_runs():
    result = run_script("compare_solvers.py", "--N", "3", "--K", "3", "--rounds", "5")
    assert result.returncode == 0, result.stderr
    methods = [line.split()[0] for line in result.stdout.splitlines()[2:]]
    assert methods == ["pdip", "sca", "pgd", "fpa"]


def test_cells_ledger_writes_and_compares_one_cell(tmp_path):
    cell = "N10 K10 +10dB s0"
    first = tmp_path / "first.json"
    result = run_script("cells.py", "--cell", cell, "--out", str(first))
    assert result.returncode == 0, result.stderr
    ledger = json.loads(first.read_text())
    solves = ledger[cell]["solves"]
    assert list(ledger) == [cell]
    assert list(solves) == ["pdip", "sca", "pgd", "fpa"]
    for method, solve in solves.items():
        assert float.fromhex(solve["mse"]) > 0
        assert len(solve["inner_iterations"]) == (0 if method == "fpa" else solve["rounds"])
        for counter in ("steering", "projections", "pava", "newton_steps", "residuals",
                        "qp_steps"):
            assert isinstance(solve[counter], int) and solve[counter] >= 0
    # every pgd iteration projects at least one trial point, only pdip takes
    # Newton steps and evaluates its residuals, and every sca round takes at
    # least one active-set step
    assert solves["pgd"]["projections"] >= sum(solves["pgd"]["inner_iterations"])
    assert solves["pgd"]["pava"] <= solves["pgd"]["projections"]
    assert solves["pdip"]["newton_steps"] > 0 and solves["fpa"]["newton_steps"] == 0
    assert solves["pdip"]["residuals"] > 0
    assert solves["sca"]["qp_steps"] >= solves["sca"]["rounds"] > 0
    for method in ("sca", "pgd", "fpa"):
        assert solves[method]["residuals"] == 0
    for method in ("pdip", "pgd", "fpa"):
        assert solves[method]["qp_steps"] == 0

    # a rerun reproduces the file; against an edited copy it names the moves
    solves["pdip"]["mse"] = (float.fromhex(solves["pdip"]["mse"]) * 0.5).hex()
    solves["sca"]["rounds"] += 1
    old = tmp_path / "old.json"
    old.write_text(json.dumps(ledger))
    second = tmp_path / "second.json"
    result = run_script("cells.py", "--cell", cell, "--out", str(second),
                        "--against", str(old))
    assert result.returncode == 0, result.stderr
    assert second.read_text() == first.read_text()
    lines = result.stdout.splitlines()
    assert f"  pdip   +1.00e+00  {cell}" in lines
    assert f"  sca    +0.00e+00  {cell}" in lines
    assert f"  {cell} sca: rounds {solves['sca']['rounds']} -> " \
           f"{solves['sca']['rounds'] - 1}" in lines
    assert sum(line.endswith("changed") for line in lines) == 2


def test_counted_calls_take_keyword_arguments():
    # the ledger's counters wrap library functions; a counted call must
    # forward keyword arguments, to the function and to the call filter
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import cells
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    from fluidaircomp import model, pgd

    y = np.array([0.0, 3.0, 1.0, 2.0, 5.0])
    phi = np.array([-1.0, 2.0])
    with cells.work_counters() as counts:
        pooled = pgd.pava_nondecreasing(y, first=1, last=2)
        model.steering(np.zeros(3), spatial_freqs=phi)
        model.steering(np.zeros((2, 3)), spatial_freqs=phi)
    assert counts["pava"] == 1 and counts["steering"] == 1
    assert pooled.tolist() == [0.0, 2.0, 2.0, 2.0, 5.0]

    # a weighted counter adds what it reads from each result
    counts = {"steps": 0}
    counted = cells._counting(lambda n, scale=1: [0] * (n * scale), counts, "steps",
                              None, len)
    assert counted(2, scale=3) == [0] * 6 and counts["steps"] == 6


def test_ab_of_one_tree_against_itself_is_identical():
    cell = "N10 K10 +10dB s0"
    result = run_script("ab.py", str(ROOT), str(ROOT), "--method", "pdip",
                        "--reps", "2", "--cell", cell)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 3
    fields = lines[1].rsplit(maxsplit=4)
    assert fields[0] == cell and fields[4] == "yes"
    assert float(fields[1]) > 0 and float(fields[2]) > 0 and float(fields[3]) > 0
    assert lines[2] == "all identical: yes"


def test_ab_of_all_methods_prints_one_block_each():
    cell = "N10 K10 +10dB s0"
    result = run_script("ab.py", str(ROOT), str(ROOT), "--method", "all",
                        "--reps", "1", "--cell", cell)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 4 * 4 + 1
    for block, method in zip(range(0, 16, 4), ("pdip", "sca", "pgd", "fpa")):
        assert lines[block] == f"method {method}"
        assert lines[block + 1].split()[0] == "cell"
        assert lines[block + 2].startswith(cell) and lines[block + 2].endswith("yes")
        assert lines[block + 3] == f"{method} identical: yes"
    assert lines[-1] == "all identical: yes"


def test_margins_lists_every_trend_criterion():
    # a full run takes about a minute; --help loads tests/trends.py
    result = run_script("margins.py", "--help")
    assert result.returncode == 0, result.stderr
    for name in ("8a", "8b", "8c", "8d"):
        assert name in result.stdout


def test_reproduce_study_quick_writes_every_csv(tmp_path):
    result = run_script("reproduce_study.py", "--quick", "--out-dir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    for name in ("trace.csv", "snr_sweep.csv", "n_sweep.csv", "k_sweep.csv"):
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_HEADER)
        assert len(rows) > 1


def test_reproduce_study_takes_its_settings_from_its_configs(tmp_path, monkeypatch):
    # a flag that is not given leaves the config's value alone; one that is
    # given replaces that value and no other (--trials not the trace's)
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import reproduce_study

    configs = tmp_path / "configs"
    shutil.copytree(ROOT / "configs", configs)
    snr = configs / "snr_sweep.cfg"
    snr.write_text(snr.read_text().replace("trials = 50", "trials = 7")
                   .replace("seed = 0", "seed = 3"))
    expected = parse_config(str(snr))
    assert (expected.trials, expected.seed) == (7, 3)
    trace = parse_config(str(configs / "trace.cfg"))
    monkeypatch.setattr(reproduce_study, "CONFIGS", configs)
    calls = []
    monkeypatch.setattr(reproduce_study, "run_sweep",
                        lambda config, path: calls.append((config, path)))
    out_dir = tmp_path / "results"
    for flags, changes in (((), {}), (("--seed", "5"), {"seed": 5}),
                           (("--trials", "4", "--workers", "2"), {"trials": 4, "workers": 2})):
        calls.clear()
        monkeypatch.setattr(sys, "argv", ["reproduce_study.py", "--out-dir", str(out_dir),
                                          *flags])
        reproduce_study.main()
        runs = {path: config for config, path in calls}
        assert list(runs) == [str(out_dir / name) for name in
                              ("trace.csv", "snr_sweep.csv", "n_sweep.csv", "k_sweep.csv")]
        assert runs[str(out_dir / "snr_sweep.csv")] == replace(expected, **changes)
        assert runs[str(out_dir / "trace.csv")].trials == trace.trials


def test_reproduce_study_rejects_negative_workers(tmp_path):
    out_dir = tmp_path / "results"
    result = run_script("reproduce_study.py", "--quick", "--workers", "-3",
                        "--out-dir", str(out_dir))
    assert result.returncode != 0
    assert "workers" in result.stderr
    assert not out_dir.exists()
