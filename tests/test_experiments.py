import csv
import os

import numpy as np
import pytest

from fluidaircomp.cli import cli_main
from fluidaircomp.experiments import (CSV_HEADER, ExperimentConfig,
                                      default_out_path, parse_config, run_sweep,
                                      trace_config)


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
    config = trace_config(2, 2, -5.0, methods=("pdip", "sca"), seed=1,
                          max_rounds=8)
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


def test_cli_missing_config_is_runtime_error(tmp_path):
    assert cli_main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_cli_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["run", "--granularity", "fine"])
    assert excinfo.value.code == 2


def test_cli_unknown_command_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["optimize"])
    assert excinfo.value.code == 2
