import csv
import os
import re
import runpy
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

import fluidaircomp.cli as cli
import fluidaircomp.experiments as experiments
from fluidaircomp.cli import cli_main
from fluidaircomp.driver import METHODS, AoOptions, ao_optimize
from fluidaircomp.experiments import (CSV_HEADER, ExperimentConfig, default_out_path,
                                      parse_config, run_sweep, sweep_reports)
from fluidaircomp.model import PositionSet, sample_scenario


def tiny_config(**overrides):
    base = dict(sweep="snr", values=(-5.0, 5.0), n=2, k=2, trials=2,
                methods=("pdip", "fpa"), seed=3, max_rounds=6)
    base.update(overrides)
    return ExperimentConfig(**base)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(sweep="frequency")
    with pytest.raises(ValueError):
        ExperimentConfig(values=())
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("pdip", "newton"))
    with pytest.raises(ValueError):
        ExperimentConfig(timing="cpu")


@pytest.mark.parametrize("sweep, values", [
    ("n", (5.5,)), ("n", (2.0, 3.25)), ("k", (4.5,)), ("k", (float("inf"),)),
], ids=["n-5.5", "n-3.25", "k-4.5", "k-inf"])
def test_config_rejects_fractional_axis_values(sweep, values):
    ExperimentConfig(sweep=sweep, values=(2.0, 3.0))
    with pytest.raises(ValueError):
        ExperimentConfig(sweep=sweep, values=values)


@pytest.mark.parametrize("overrides", [
    dict(workers=-3), dict(methods=()), dict(methods=("fpa", "fpa")),
    dict(values=(-10.0, -10.0)), dict(sweep="n", values=(3.0, 3.0)),
    dict(n=0), dict(k=0), dict(sweep="n", values=(0.0, 2.0)),
    dict(sweep="k", values=(-1.0,)),
    dict(snr_db=float("nan")), dict(sweep="n", values=(2.0,), snr_db=float("inf")),
    dict(values=(-5.0, float("nan"))), dict(values=(float("-inf"),)),
    dict(p0=0.0), dict(p0=-1.0), dict(p0=float("nan")), dict(p0=float("inf")),
    dict(alpha_min=float("nan")), dict(alpha_max=float("inf")),
    dict(alpha_min=0.0), dict(alpha_min=-0.5), dict(alpha_min=2.0, alpha_max=1.0),
    dict(values=(-5.0, 4000.0)), dict(values=(-4000.0,)),
    dict(sweep="n", values=(2.0,), snr_db=4000.0), dict(p0=1e308), dict(p0=5e-324),
    dict(max_rounds=0), dict(max_rounds=-1), dict(tol_mse=float("nan")),
    dict(tol_mse=float("inf")), dict(tol_mse=-1e-6), dict(seed=-1),
], ids=["workers-neg", "methods-empty", "methods-dup", "snr-dup", "n-dup",
        "n-0", "k-0", "n-axis-0", "k-axis-neg",
        "snr-nan", "snr-inf", "snr-axis-nan", "snr-axis-neg-inf",
        "p0-0", "p0-neg", "p0-nan", "p0-inf",
        "alpha-min-nan", "alpha-max-inf", "alpha-min-0", "alpha-min-neg",
        "alpha-min-above-max",
        "snr-axis-overflow", "snr-axis-underflow", "snr-overflow",
        "noise-overflow", "noise-underflow",
        "max-rounds-0", "max-rounds-neg", "tol-nan", "tol-inf", "tol-neg",
        "seed-neg"])
def test_config_rejects_bad_sweeps(overrides):
    with pytest.raises(ValueError):
        tiny_config(**overrides)


def test_counts_must_be_integers():
    # a fractional count fails where it is built, not later in range() or in
    # a random draw; NumPy integers are counts too
    for name in ("n", "k", "trials", "seed", "workers", "max_rounds"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            tiny_config(**{name: 2.5})
        assert getattr(tiny_config(**{name: np.int64(2)}), name) == 2
    with pytest.raises(ValueError, match="max_rounds must be an integer"):
        AoOptions(method="fpa", max_rounds=2.5)
    assert AoOptions(method="fpa", max_rounds=np.int32(2)).max_rounds == 2
    with pytest.raises(ValueError, match="n_antennas must be an integer"):
        PositionSet(2.5, 3.0, 0.5)
    assert PositionSet(np.int64(3), 3.0, 0.5).uniform().shape == (3,)


def test_cli_rejects_bad_override_before_writing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sweep = snr\nvalues = -5\nn = 2\nk = 2\ntrials = 1\n"
                   "methods = fpa\nmax_rounds = 5\n")
    out = tmp_path / "result.csv"
    code = cli_main(["run", "--config", str(cfg), "--out", str(out),
                     "--workers", "-3"])
    assert code == 1
    assert not out.exists()


def test_cli_trace_rejects_negative_seed_before_writing(tmp_path):
    out = tmp_path / "trace.csv"
    assert cli_main(["trace", "--seed", "-3", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("line", ["values = nan", "p0 = -1", "alpha_min = 0",
                                  "values = 4000", "max_rounds = -1"],
                         ids=["snr-nan", "p0-neg", "alpha-min-0", "snr-4000",
                              "max-rounds-neg"])
def test_cli_rejects_bad_config_before_writing(tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sweep = snr\nvalues = -5\nn = 2\nk = 2\ntrials = 1\n"
                   f"methods = fpa\nmax_rounds = 5\n{line}\n")
    out = tmp_path / "result.csv"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# demo sweep\n"
        "sweep = n\n"
        "values = 2, 3\n"
        "k = 4            # fixed user count\n"
        "snr_db = -10\n"
        "methods = pdip, fpa\n"
        "trials = 5\n"
        "seed = 9\n"
        "timing = none\n"
    )
    config = parse_config(str(cfg))
    assert config.sweep == "n"
    assert config.values == (2.0, 3.0)
    assert config.k == 4
    assert config.methods == ("pdip", "fpa")
    assert config.trials == 5
    assert config.seed == 9


# One non-default value per ExperimentConfig field, as written in a config file.
FIELD_TEXT = {
    "sweep": ("trace", "trace"), "values": ("-3, 4.5", (-3.0, 4.5)),
    "n": ("7", 7), "k": ("3", 3), "snr_db": ("-2.5", -2.5), "p0": ("2.5", 2.5),
    "alpha_min": ("0.25", 0.25), "alpha_max": ("2", 2.0),
    "methods": ("sca, fpa", ("sca", "fpa")), "trials": ("3", 3), "seed": ("11", 11),
    "out": ("dir/x.csv", "dir/x.csv"), "workers": ("2", 2), "timing": ("wall", "wall"),
    "max_rounds": ("9", 9), "tol_mse": ("1e-4", 1e-4),
}


@pytest.mark.parametrize("field", fields(ExperimentConfig), ids=lambda f: f.name)
def test_parse_config_reads_every_field(tmp_path, field):
    text, expected = FIELD_TEXT[field.name]
    assert expected != field.default
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{field.name} = {text}\n")
    value = getattr(parse_config(str(cfg)), field.name)
    assert value == expected
    assert type(value) is type(field.default)
    if isinstance(value, tuple):
        assert all(type(item) is type(field.default[0]) for item in value)


def test_parse_config_hash_inside_a_value_is_kept(tmp_path):
    # only a '#' at the start of a line or after whitespace opens a comment
    cfg = tmp_path / "hash.cfg"
    cfg.write_text("  # indented comment\nout = res#1.csv\nk = 4 # users\n"
                   "methods = fpa,sca\t# tab before the comment\n")
    config = parse_config(str(cfg))
    assert (config.out, config.k, config.methods) == ("res#1.csv", 4, ("fpa", "sca"))


def test_parse_config_last_occurrence_wins(tmp_path):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("seed = 1\nvalues = 1, 2\nseed = 2\nvalues = 3\n")
    config = parse_config(str(cfg))
    assert (config.seed, config.values) == (2, (3.0,))


@pytest.mark.parametrize("line, key", [
    ("n = 5.5", "n"), ("snr_db = loud", "snr_db"), ("values = -5, x", "values"),
    ("trials = ", "trials"),
], ids=["n-fraction", "snr-word", "values-item", "trials-empty"])
def test_parse_config_value_error_names_its_place(tmp_path, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# header\nsweep = snr\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{cfg}:3: {key}: ")):
        parse_config(str(cfg))


def test_parse_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sweeep = snr\n")
    with pytest.raises(ValueError):
        parse_config(str(cfg))


def test_parse_config_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a line\n")
    with pytest.raises(ValueError):
        parse_config(str(cfg))


def test_sweep_csv_schema_and_order(tmp_path):
    path = tmp_path / "out.csv"
    run_sweep(tiny_config(), str(path))
    rows = read_csv(str(path))
    assert rows[0] == list(CSV_HEADER)
    body = rows[1:]
    # per-trial rows: values x trials x methods, then aggregate rows
    assert len(body) == 2 * 2 * 2 + 2 * 2
    per_trial = body[:8]
    assert [r[0] for r in per_trial] == ["snr_db"] * 8
    assert [r[1] for r in per_trial[:4]] == ["-5"] * 4
    # paired seeding: every method in a cell sees the same seed
    for i in range(0, 8, 2):
        assert per_trial[i][7] == per_trial[i + 1][7]
    aggregates = body[8:]
    assert all(r[2] == "-1" for r in aggregates)


def test_sweep_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    run_sweep(tiny_config(), str(first))
    run_sweep(tiny_config(), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_sweep_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    run_sweep(tiny_config(workers=1), str(serial))
    run_sweep(tiny_config(workers=2), str(parallel))
    assert serial.read_bytes() == parallel.read_bytes()


def test_pool_has_at_most_one_worker_per_cell(monkeypatch, tmp_path):
    # a forked pool starts all its workers at once, so a two-cell sweep must
    # not ask for 64 processes; the recording pool maps in this process
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    pooled = tmp_path / "pooled.csv"
    serial = tmp_path / "serial.csv"
    run_sweep(tiny_config(values=(-5.0,), methods=("fpa",), workers=64), str(pooled))
    run_sweep(tiny_config(values=(-5.0,), methods=("fpa",), workers=1), str(serial))
    assert asked == [2]
    assert pooled.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_reports_are_the_direct_solves_in_cell_order(workers, tmp_path):
    config = tiny_config(workers=workers)
    cells = list(sweep_reports(config))
    assert [(value, trial) for value, trial, _ in cells] == [
        (value, trial) for value in config.values for trial in range(config.trials)]
    for value, trial, reports in cells:
        seed = config.seed + trial
        scenario = sample_scenario(config.n, config.k, value, seed)
        assert list(reports) == list(config.methods)
        for method, report in reports.items():
            direct = ao_optimize(scenario, AoOptions(method, config.max_rounds,
                                                     config.tol_mse), seed=seed)
            assert np.array_equal(report.mse_history, direct.mse_history)
            assert (report.status, report.seed, report.inner_iterations) == (
                direct.status, seed, direct.inner_iterations)
            for name in ("b", "m", "x", "mse"):
                assert np.array_equal(getattr(report.state, name),
                                      getattr(direct.state, name))
    path = tmp_path / "out.csv"
    run_sweep(config, str(path))
    want = [["snr_db", f"{value:g}", str(trial), method, f"{report.state.mse:.12g}",
             str(report.rounds), "0.000000", str(config.seed + trial)]
            for value, trial, reports in cells for method, report in reports.items()]
    assert read_csv(str(path))[1:len(want) + 1] == want


def test_aggregate_rows_hold_means(tmp_path):
    path = tmp_path / "out.csv"
    run_sweep(tiny_config(), str(path))
    rows = read_csv(str(path))[1:]
    per_trial = [r for r in rows if r[2] != "-1"]
    for agg in rows[len(per_trial):]:
        group = [r for r in per_trial if r[1] == agg[1] and r[3] == agg[3]]
        assert float(agg[4]) == pytest.approx(np.mean([float(r[4]) for r in group]),
                                              rel=1e-9)


def test_trace_mode_rows_are_monotone(tmp_path):
    path = tmp_path / "trace.csv"
    config = ExperimentConfig(sweep="trace", values=(), n=2, k=2, snr_db=-5.0,
                              methods=("pdip", "sca"), trials=1, seed=1, max_rounds=8)
    run_sweep(config, str(path))
    rows = read_csv(str(path))[1:]
    for method in ("pdip", "sca"):
        series = [float(r[4]) for r in rows if r[3] == method]
        assert len(series) >= 2
        assert all(b <= a + 1e-9 for a, b in zip(series, series[1:]))
        rounds = [float(r[1]) for r in rows if r[3] == method]
        assert rounds == sorted(rounds)


def test_default_out_path_env_var(monkeypatch, tmp_path):
    monkeypatch.setenv("FLUIDAIRCOMP_OUT", str(tmp_path))
    config = tiny_config(out="")
    assert default_out_path(config) == os.path.join(str(tmp_path), "snr_sweep.csv")
    config = tiny_config(out="explicit.csv")
    assert default_out_path(config) == "explicit.csv"


def test_cli_run_subcommand(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "sweep = snr\nvalues = -5\nn = 2\nk = 2\ntrials = 1\n"
        "methods = fpa\nmax_rounds = 5\n"
    )
    out = tmp_path / "result.csv"
    code = cli_main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert read_csv(str(out))[0] == list(CSV_HEADER)


def test_cli_flag_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "sweep = snr\nvalues = -5\nn = 2\nk = 2\ntrials = 2\n"
        "methods = pdip, fpa\nmax_rounds = 5\nseed = 0\n"
    )
    out = tmp_path / "result.csv"
    code = cli_main(["run", "--config", str(cfg), "--out", str(out),
                     "--method", "fpa", "--trials", "1", "--seed", "4"])
    assert code == 0
    rows = read_csv(str(out))[1:]
    assert {r[3] for r in rows} == {"fpa"}
    assert {r[7] for r in rows if r[2] != "-1"} == {"4"}


def test_cli_trace_subcommand(tmp_path):
    out = tmp_path / "trace.csv"
    code = cli_main(["trace", "--N", "2", "--K", "2", "--snr-db", "-10",
                     "--method", "fpa", "--rounds", "5", "--out", str(out)])
    assert code == 0
    rows = read_csv(str(out))
    assert rows[0] == list(CSV_HEADER)
    assert all(r[0] == "round" for r in rows[1:])


@pytest.fixture
def captured(monkeypatch):
    """Configs and paths that the CLI hands to run_sweep, which does not run."""
    calls = []
    monkeypatch.setattr(cli, "run_sweep", lambda config, path: calls.append((config, path)))
    return calls


def test_cli_bare_trace_config(captured):
    assert cli_main(["trace"]) == 0
    [(config, _)] = captured
    assert config.sweep == "trace"
    assert (config.n, config.k, config.snr_db) == (10, 100, -10.0)
    assert (config.max_rounds, config.seed, config.trials) == (100, 0, 1)
    assert config.methods == METHODS
    assert config.out == ""


def test_cli_trace_flags_set_fields(captured, tmp_path):
    out = str(tmp_path / "t.csv")
    assert cli_main(["trace", "--N", "3", "--K", "5", "--snr-db", "2.5", "--rounds", "6",
                     "--seed", "4", "--method", "sca", "--method", "fpa",
                     "--out", out]) == 0
    [(config, path)] = captured
    assert config == ExperimentConfig(sweep="trace", values=(), n=3, k=5, snr_db=2.5,
                                      max_rounds=6, seed=4, methods=("sca", "fpa"),
                                      trials=1, out=out)
    assert path == out


def test_cli_run_keeps_file_values_it_does_not_override(captured, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{name} = {text}\n" for name, (text, _) in FIELD_TEXT.items()
                           if name != "sweep"))
    from_file = parse_config(str(cfg))
    assert cli_main(["run", "--config", str(cfg)]) == 0
    assert cli_main(["run", "--config", str(cfg), "--seed", "5", "--trials", "4",
                     "--workers", "0", "--out", "o.csv", "--method", "pgd",
                     "--method", "pdip"]) == 0
    [(plain, _), (overridden, path)] = captured
    assert plain == from_file
    assert overridden == replace(from_file, seed=5, trials=4, workers=0, out="o.csv",
                                 methods=("pgd", "pdip"))
    assert path == "o.csv"


@pytest.mark.parametrize("argv, code", [
    (["trace"], 0), (["run", "--config", "nope.cfg"], 1), (["run", "--granularity", "fine"], 2),
], ids=["ok", "runtime-error", "usage-error"])
def test_main_exits_with_cli_main_code(captured, monkeypatch, tmp_path, argv, code):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["fluidaircomp", *argv])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_module("fluidaircomp", run_name="__main__")
    assert excinfo.value.code == code


@pytest.mark.parametrize("module", ["fluidaircomp", "fluidaircomp.cli"])
def test_python_m_runs_the_command(module, tmp_path):
    out = tmp_path / "trace.csv"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    result = subprocess.run(
        [sys.executable, "-m", module, "trace", "--N", "2", "--K", "2", "--rounds", "1",
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert read_csv(str(out))[0] == list(CSV_HEADER)


def test_cli_missing_config_is_runtime_error(tmp_path):
    assert cli_main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_cli_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["run", "--granularity", "fine"])
    assert excinfo.value.code == 2


def test_cli_unknown_command_exits_2():
    for command in ("optimize", "check"):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([command])
        assert excinfo.value.code == 2
